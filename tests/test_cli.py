"""CLI contract: exit codes, byte determinism, text/json numeric agreement."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wfcheck
from wfcheck import cli
from wfcheck import interpret as it
from wfcheck import scenario as sc

SCENARIOS = Path(wfcheck.__file__).parent / "scenarios"

GHZ_MIXED = """scenario ghz_mixed
system S1 2
system S2 2
system S3 2
agent alice record A1 2 init 0 record A2 2 init 0 record A3 2 init 0
observer wigner
prepare ghz on S1, S2, S3
interact alice on S1 basis basis3 record A1
interact alice on S2 basis basis3 record A2
interact alice on S3 basis basis3 record A3
measure wigner on S1, alice.A1 basis lifted(basis2, basis3) result b1
read wigner record alice.A2 result a2
read wigner record alice.A3 result a3
"""

CLASH = """scenario clash
system S 2
observer o
prepare state [1+0i, 0+0i] on S
measure o on S basis basis1 result x
measure o on S basis basis3 result y concurrent
"""


def invoke(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = invoke(capsys, *args)
    return code, json.loads(out), err


class TestParseCommand:
    @pytest.mark.parametrize("name", ["epr", "cpl", "ghz"])
    def test_fixture_prints_itself(self, capsys, name):
        # bundled fixtures are shipped in canonical form
        path = SCENARIOS / f"{name}.wfs"
        code, out, err = invoke(capsys, "parse", str(path))
        assert code == 0
        assert out == path.read_text(encoding="utf-8")

    def test_missing_file_exit_2(self, capsys):
        code, out, err = invoke(capsys, "parse", str(SCENARIOS / "nonexistent.wfs"))
        assert code == 2
        assert "nonexistent.wfs" in err

    def test_truncated_file_exit_1_with_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.wfs"
        bad.write_text("scenario x\nsystem S\n")
        code, out, err = invoke(capsys, "parse", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_validation_failure_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "unwritten.wfs"
        bad.write_text("scenario x\nsystem S 2\n"
                       "agent alice record A 2 init 0\nobserver bob\n"
                       "prepare state [1, 0] on S\n"
                       "read bob record alice.A result rb\n")
        code, out, err = invoke(capsys, "parse", str(bad))
        assert code == 1
        assert "never written" in err


class TestRunCommand:
    def test_requires_rules_flag(self, capsys):
        code, out, err = invoke(capsys, "run", str(SCENARIOS / "epr.wfs"))
        assert code == 1

    def test_rejects_unknown_rule_set(self, capsys):
        code, out, err = invoke(capsys, "run", str(SCENARIOS / "epr.wfs"),
                                "--rules", "everett")
        assert code == 1
        assert "invalid choice" in err

    def test_rejects_negative_seed(self, capsys):
        code, out, err = invoke(capsys, "run", str(SCENARIOS / "epr.wfs"),
                                "--rules", "rqm5", "--seed", "-1")
        assert code == 1

    def test_exact_table_matches_engine(self, capsys):
        code, doc, err = run_json(capsys, "run", str(SCENARIOS / "epr.wfs"),
                                  "--rules", "rqm5", "--format", "json")
        assert code == 0
        scenario = sc.parse((SCENARIOS / "epr.wfs").read_text(encoding="utf-8"))
        joint = it.exact_joint(scenario, it.RuleSet.rqm5())
        rows = doc["result"]["exact"]["rows"]
        assert len(rows) == len(joint) == 4
        for row in rows:
            assert row["probability"] == pytest.approx(
                joint[tuple(row["outcome"])], abs=1e-15)

    def test_orthodox_outcomes_always_match(self, capsys):
        code, doc, err = run_json(capsys, "run", str(SCENARIOS / "epr.wfs"),
                                  "--rules", "orthodox", "--format", "json")
        rows = doc["result"]["exact"]["rows"]
        assert all(row["outcome"][0] == row["outcome"][1] for row in rows)
        assert sum(row["probability"] for row in rows) == pytest.approx(1.0, abs=1e-12)

    def test_byte_determinism(self, capsys):
        args = ("run", str(SCENARIOS / "cpl.wfs"), "--rules", "cpl",
                "--seed", "7", "--format", "json")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second
        args_text = args[:-2] + ("--format", "text")
        _, first, _ = invoke(capsys, *args_text)
        _, second, _ = invoke(capsys, *args_text)
        assert first == second

    def test_seed_changes_sampled_history(self, capsys):
        outs = set()
        for seed in range(6):
            _, doc, _ = run_json(capsys, "run", str(SCENARIOS / "epr.wfs"),
                                 "--rules", "rqm5", "--seed", str(seed),
                                 "--format", "json")
            outs.add(json.dumps(doc["result"]["outcomes"], sort_keys=True))
        assert len(outs) > 1

    def test_sampled_mode_reports_counts_and_exact(self, capsys):
        n = 2000
        code, doc, err = run_json(capsys, "run", str(SCENARIOS / "epr.wfs"),
                                  "--rules", "rqm5", "--samples", str(n),
                                  "--seed", "3", "--format", "json")
        assert code == 0
        sampled = doc["result"]["sampled"]
        assert sampled["n"] == n
        assert sum(row["count"] for row in sampled["rows"]) == n
        assert "exact" in doc["result"]
        for row in sampled["rows"]:
            assert row["frequency"] == pytest.approx(row["count"] / n, abs=1e-15)

    def test_text_and_json_agree_numerically(self, capsys):
        args = (str(SCENARIOS / "epr.wfs"), "--rules", "rqm5", "--seed", "5")
        _, text_out, _ = invoke(capsys, "run", *args)
        _, doc, _ = run_json(capsys, "run", *args, "--format", "json")
        want = {tuple(row["outcome"]): row["probability"]
                for row in doc["result"]["exact"]["rows"]}
        got = {}
        for line in text_out.splitlines():
            if line.startswith("joint "):
                parts = line.split()
                outcome = tuple(int(p.split("=")[1]) for p in parts[1:-2])
                got[outcome] = float(parts[-1])
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], rel=1e-11, abs=1e-11)

    def test_pin_flag_threshold(self, capsys):
        base = ("run", str(SCENARIOS / "cpl.wfs"), "--rules", "cpl",
                "--seed", "7", "--format", "json")
        _, doc, _ = run_json(capsys, *base)
        pins = doc["result"]["pins"]
        assert len(pins) == 1
        assert pins[0]["born_weight"] in (pytest.approx(0.3), pytest.approx(0.7))
        assert pins[0]["flagged"] is False
        _, doc, _ = run_json(capsys, *base, "--tolerance", "0.9")
        assert doc["result"]["pins"][0]["flagged"] is True

    def test_forced_zero_probability_pin_reported(self, capsys, tmp_path):
        path = tmp_path / "ghz_mixed.wfs"
        path.write_text(GHZ_MIXED)
        found = False
        for seed in range(10):
            code, doc, err = run_json(capsys, "run", str(path), "--rules", "cpl",
                                      "--seed", str(seed), "--format", "json")
            assert code == 0
            if doc["result"]["anomalies"]:
                found = True
                assert any(p["flagged"] for p in doc["result"]["pins"])
                break
        assert found

    def test_noncommuting_group_exit_1(self, capsys, tmp_path):
        path = tmp_path / "clash.wfs"
        path.write_text(CLASH)
        code, out, err = invoke(capsys, "run", str(path), "--rules", "rqm5")
        assert code == 1
        assert out == ""
        assert err == f"{path}: concurrent events 1 and 2 do not commute on ['S']\n"


class TestCheckCommand:
    def test_cpl_contradiction_exit_3(self, capsys):
        code, doc, err = run_json(capsys, "check", "cpl", "--c", "0.3,0.7",
                                  "--ra", "1", "--format", "json")
        assert code == 3
        result = doc["result"]
        assert result["verdict"] == "contradiction"
        born = dict((k, v) for k, v in result["findings"][0]["values"])
        assert born["rqm5"] == pytest.approx(0.3, abs=1e-12)
        assert born["cpl"] == 0.0

    def test_cpl_consistent_exit_0(self, capsys):
        code, doc, err = run_json(capsys, "check", "cpl", "--c", "1,0",
                                  "--ra", "0", "--format", "json")
        assert code == 0
        assert doc["result"]["verdict"] == "consistent"

    def test_epr_ambiguity_exit_3(self, capsys):
        code, doc, err = run_json(capsys, "check", "epr", "--format", "json")
        assert code == 3
        result = doc["result"]
        assert result["verdict"] == "ambiguity"
        values = dict((k, v) for k, v in result["findings"][0]["values"])
        assert values["orthodox"] == pytest.approx(1.0, abs=1e-12)
        assert values["rqm5/separate"] == pytest.approx(0.58, abs=1e-12)
        assert values["rqm5/joint"] == pytest.approx(1.0, abs=1e-12)

    def test_ghz_contradiction_and_search(self, capsys):
        code, doc, err = run_json(capsys, "check", "ghz", "--format", "json")
        assert code == 3
        search = doc["result"]["assignment_search"]
        assert search["domain_size"] == 8
        assert search["satisfying"] == []
        assert search["formal_product_value"] == "±i"
        assert doc["result"]["verdict"] == "contradiction"

    def test_ghz_fact_holder_flag(self, capsys):
        _, a, _ = run_json(capsys, "check", "ghz", "--format", "json")
        _, b, _ = run_json(capsys, "check", "ghz", "--fact-holder", "both",
                           "--format", "json")
        assert a["result"]["verdict"] == b["result"]["verdict"]
        assert a["result"]["findings"] == b["result"]["findings"]

    def test_parameters_record_both_forms(self, capsys):
        _, doc, _ = run_json(capsys, "check", "cpl", "--c", "0.3,0.7",
                             "--ra", "1", "--format", "json")
        params = doc["result"]["parameters"]
        assert params["probabilities"] == [0.3, 0.7]
        for p, a in zip(params["probabilities"], params["amplitudes"]):
            assert a == pytest.approx(math.sqrt(p), abs=1e-15)
        assert params["record_index"] == 1

    def test_bad_parameters_exit_1(self, capsys):
        cases = [
            ("check", "cpl", "--c", "0.5,0.6", "--ra", "0"),   # unnormalized
            ("check", "cpl", "--c", "-0.3,1.3"),               # negative entry
            ("check", "cpl", "--c", "0.3,0.7", "--ra", "9"),   # index range
            ("check", "ghz", "--c", "0.3,0.7"),                # no state params
            ("check", "epr", "--ra", "1"),                     # cpl-only flag
            ("check", "epr", "--c", "0.5,0.5"),                # degenerate pair
            ("check", "cpl", "--c", "zero,one"),               # unparseable
            ("check", "unknown"),
        ]
        for args in cases:
            code, out, err = invoke(capsys, *args)
            assert code == 1, args
            assert err, args

    def test_text_and_json_agree_numerically(self, capsys):
        args = ("check", "epr", "--c", "0.3,0.7")
        _, text_out, _ = invoke(capsys, *args)
        _, doc, _ = run_json(capsys, *args, "--format", "json")
        text_values = {}
        for line in text_out.splitlines():
            stripped = line.strip()
            if stripped.startswith("value "):
                name, _, value = stripped[len("value "):].partition(" = ")
                text_values[name] = float(value)
        for finding in doc["result"]["findings"]:
            for name, value in finding["values"]:
                assert text_values[name] == pytest.approx(value, rel=1e-11, abs=1e-11)

    def test_byte_determinism(self, capsys):
        args = ("check", "ghz", "--format", "json")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second


class TestEnvelope:
    def test_fields(self, capsys):
        code, doc, err = run_json(capsys, "run", str(SCENARIOS / "epr.wfs"),
                                  "--rules", "rqm5", "--seed", "7",
                                  "--format", "json")
        assert doc["tool"] == "wfcheck"
        assert doc["command"] == "run"
        assert doc["seed"] == 7
        assert doc["timing"] is None
        assert doc["invocation"][0] == "run"
        assert "--seed" in doc["invocation"]

    def test_check_envelope_has_no_seed(self, capsys):
        _, doc, _ = run_json(capsys, "check", "ghz", "--format", "json")
        assert doc["seed"] is None

    def test_version_flag(self, capsys):
        code, out, err = invoke(capsys, "--version")
        assert code == 0

    def test_no_command_is_usage_error(self, capsys):
        code, out, err = invoke(capsys)
        assert code == 1


class TestSubprocessEntry:
    def test_module_invocation_matches_in_process(self, capsys):
        args = ["check", "cpl", "--c", "0.3,0.7", "--ra", "1", "--format", "json"]
        # the child must import the same package the test imported
        src = str(Path(wfcheck.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "wfcheck.cli", *args],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 3
        _, out, _ = invoke(capsys, *args)
        assert proc.stdout == out
