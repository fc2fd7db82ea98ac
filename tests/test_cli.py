"""CLI contract: exit codes, byte determinism, text/json numeric agreement."""

import gc
import json
import math
import re
import tracemalloc
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

# an outsider reads alice's record, then alice interacts again: under rqm5
# the read disturbs the record that conditions alice's second fact
REREAD = """scenario reread
system S1 2
system S2 2
agent alice record A1 2 init 0 record A2 2 init 0
observer w
prepare state [0.6+0i, 0.8+0i] on S1
prepare state [0.6+0i, 0.8+0i] on S2
interact alice on S1 basis basis1 record A1
read w record alice.A1 result r
interact alice on S2 basis basis1 record A2
"""

# bob's fact B is never measured or read, but the read of carol's record
# collapses the GHZ state B is correlated with, and B conditions bob's B2
CORRELATED_READ = """scenario correlated_read
system S1 2
system S2 2
system S3 2
system S5 2
agent bob record B 2 init 0 record B2 2 init 0
agent carol record C 2 init 0
observer w
prepare ghz on S1, S2, S3
partition p group bob, carol
interact bob on S2 basis basis1 record B
interact carol on S3 basis basis1 record C
read w record carol.C result r
prepare state [1+0i, 0+0i] on S5
interact bob on S5 basis basis1 record B2
"""

# two independent blocks that each fail under rqm5: a read disturbs the
# record that conditions its agent's second fact.  Alice's block draws first
TWO_FAILURES = """scenario two_failures
system S1 2
system S2 2
system T1 2
system T2 2
agent alice record A1 2 init 0 record A2 2 init 0
agent bob record B1 2 init 0 record B2 2 init 0
observer w
prepare state [0.6+0i, 0.8+0i] on S1
prepare state [0.6+0i, 0.8+0i] on S2
prepare state [0.6+0i, 0.8+0i] on T1
prepare state [0.6+0i, 0.8+0i] on T2
interact alice on S1 basis basis1 record A1
read w record alice.A1 result ra
interact bob on T1 basis basis1 record B1
read w record bob.B1 result rb
interact bob on T2 basis basis1 record B2
interact alice on S2 basis basis1 record A2
"""

CHAIN3 = """scenario chain3
system S1 2
system S2 2
system S3 2
agent f1 record A 2 init 0
agent f2 record A 2 init 0
agent f3 record A 2 init 0
observer w
prepare state [0.6+0i, 0.8+0i] on S1
prepare state [0.6+0i, 0.8+0i] on S2
prepare state [0.6+0i, 0.8+0i] on S3
interact f1 on S1 basis basis1 record A
interact f2 on S2 basis basis1 record A
interact f3 on S3 basis basis1 record A
read w record f1.A result r1
read w record f2.A result r2
read w record f3.A result r3
"""

# a qubit written through a basis with a float and a string label into a
# qutrit record; a Fourier readout then gives the record's cell2 pointer weight
LABELS = """scenario labels
system S 2
agent alice record A 3 init 0
observer bob
basis tilt on 2 labels 0.5, up vectors [0.6+0i, 0.8+0i] ; [0.8+0i, -0.6+0i]
basis f3 on 3 labels 2.5, y, z vectors \
[0.5773502691896258+0i, 0.5773502691896258+0i, 0.5773502691896258+0i] ; \
[0.5773502691896258+0i, -0.28867513459481287+0.5i, -0.28867513459481287-0.5i] ; \
[0.5773502691896258+0i, -0.28867513459481287-0.5i, -0.28867513459481287+0.5i]
prepare state [1+0i, 0+0i] on S
interact alice on S basis tilt record A
read bob record alice.A basis f3 result rf
read bob record alice.A result rd
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

    @pytest.mark.parametrize("command", ["parse", "run"])
    def test_non_utf8_file_exit_1(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.wfs"
        path.write_bytes(b"scenario caf\xe9\n")
        args = (command, str(path)) + (("--rules", "orthodox") if command == "run" else ())
        code, out, err = invoke(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith(f"{path}: not valid UTF-8: ")
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan"])
    def test_rejects_non_finite_tolerance(self, capsys, value):
        # JSON has no NaN or Infinity; --tolerance=-inf keeps argparse from
        # reading the value as an option
        code, out, err = invoke(capsys, "run", str(SCENARIOS / "cpl.wfs"), "--rules", "cpl",
                                "--format", "json", f"--tolerance={value}")
        assert code == 1
        assert out == ""
        assert err.endswith("error: argument --tolerance: must be a finite number\n")

    @pytest.mark.parametrize("option,message", [
        ("--seed", "must be a nonnegative integer"),
        ("--samples", "must be a nonnegative integer"),
        ("--tolerance", "must be a finite number"),
    ])
    def test_unparseable_values_name_no_private_function(self, capsys, option, message):
        code, out, err = invoke(capsys, "run", str(SCENARIOS / "cpl.wfs"), "--rules", "cpl", option, "abc")
        assert code == 1
        assert out == ""
        assert err.endswith(f"error: argument {option}: {message}\n")
        assert not re.search(r"\b_[a-z]", err)

    def test_rejects_sample_counts_from_2_63(self, capsys):
        base = ("run", str(SCENARIOS / "epr.wfs"), "--rules", "rqm5", "--format", "json")
        for samples in (2 ** 63, 10 ** 20):
            code, out, err = invoke(capsys, *base, "--samples", str(samples))
            assert code == 1
            assert out == ""
            assert err.endswith("error: argument --samples: must be below 2**63\n")
        code, doc, _ = run_json(capsys, *base, "--samples", str(2 ** 63 - 1))
        assert code == 0
        assert sum(row["count"] for row in doc["result"]["sampled"]["rows"]) == 2 ** 63 - 1

    @pytest.mark.parametrize("rules", it.RULE_KINDS)
    def test_runs_keep_no_plans(self, capsys, rules):
        gc.collect()  # scenarios of earlier tests that only a cycle still holds
        before = len(it._plans)
        for name in ("epr", "cpl", "ghz"):
            assert invoke(capsys, "run", str(SCENARIOS / f"{name}.wfs"), "--rules", rules)[0] == 0
        gc.collect()
        assert len(it._plans) == before

    def test_validates_each_scenario_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        validate = sc.validate

        def counting(scenario):
            calls.append(scenario.name)
            return validate(scenario)

        monkeypatch.setattr(sc, "validate", counting)
        for name in ("epr", "cpl", "ghz"):
            for rules in it.RULE_KINDS:
                calls.clear()
                assert invoke(capsys, "run", str(SCENARIOS / f"{name}.wfs"), "--rules", rules)[0] == 0
                assert len(calls) == 1
        # an invalid scenario fails in the engine and is reported by its
        # diagnostics alone, each prefixed by the path
        path = tmp_path / "unprepared.wfs"
        path.write_text("scenario unprepared\nsystem S 2\nagent a record R 2 init 0\nobserver w\n"
                        "interact a on S basis basis1 record R\nread w record a.R result r\n")
        assert invoke(capsys, "run", str(path), "--rules", "rqm5") == (
            1, "", f"{path}: event 0: unprepared target 'S'\n")
        assert invoke(capsys, "parse", str(path)) == (1, "", f"{path}: event 0: unprepared target 'S'\n")

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
        args = (str(SCENARIOS / "epr.wfs"), "--rules", "rqm5", "--seed", "5", "--samples", "500")
        _, text_out, _ = invoke(capsys, "run", *args)
        _, doc, _ = run_json(capsys, "run", *args, "--format", "json")
        want = {tuple(row["outcome"]): row["probability"]
                for row in doc["result"]["exact"]["rows"]}
        want_counts = {tuple(row["outcome"]): row["count"]
                       for row in doc["result"]["sampled"]["rows"]}
        got, counts = {}, {}
        for line in text_out.splitlines():
            parts = line.split()
            if line.startswith("joint "):
                outcome = tuple(int(p.split("=")[1]) for p in parts[1:-2])
                got[outcome] = float(parts[-1])
            elif line.startswith("sampled "):
                outcome = tuple(int(p.split("=")[1]) for p in parts[1:-4])
                counts[outcome] = int(parts[-3])
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], rel=1e-11, abs=1e-11)
        assert "samples 500" in text_out.splitlines()
        assert counts == want_counts and sum(counts.values()) == 500

    @pytest.mark.parametrize("rules", ["orthodox", "rqm5"])
    def test_float_and_string_labels_pass_through(self, capsys, tmp_path, rules):
        path = tmp_path / "labels.wfs"
        path.write_text(LABELS)
        args = (str(path), "--rules", rules, "--seed", "2", "--samples", "300")
        code, doc, _ = run_json(capsys, "run", *args, "--format", "json")
        assert code == 0
        result = doc["result"]
        keys = result["exact"]["keys"]
        assert keys == ["alice.A", "rf", "rd"]
        seen = {key: {row["outcome"][i] for row in result["exact"]["rows"]} for i, key in enumerate(keys)}
        assert seen == {"alice.A": {0.5, "up"}, "rf": {2.5, "y", "z"}, "rd": {0.5, "up", "cell2"}}
        assert {type(v) for v in seen["rd"]} == {float, str}
        assert result["outcomes"]["rf"] in seen["rf"] and result["outcomes"]["rd"] in seen["rd"]
        assert all(e["outcome"] in seen["alice.A"] for e in result["ledger"])
        # the text form prints each label as it is: 0.5, 2.5, up, cell2
        code, text_out, _ = invoke(capsys, "run", *args)
        assert code == 0
        lines = text_out.splitlines()

        def shown(kind, tail):
            return [line.split()[1:-tail] for line in lines if line.startswith(kind + " ")]

        def labelled(rows):
            return [[f"{k}={v}" for k, v in zip(keys, row["outcome"])] for row in rows]

        assert shown("joint", 2) == labelled(result["exact"]["rows"])
        assert shown("sampled", 4) == labelled(result["sampled"]["rows"])
        for name, value in result["outcomes"].items():
            assert f"result {name} = {value}" in lines

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
                _, text_out, _ = invoke(capsys, "run", str(path), "--rules", "cpl", "--seed", str(seed))
                notes = [line[len("anomaly "):] for line in text_out.splitlines() if line.startswith("anomaly ")]
                assert notes == doc["result"]["anomalies"]
                break
        assert found

    def test_noncommuting_group_exit_1(self, capsys, tmp_path):
        path = tmp_path / "clash.wfs"
        path.write_text(CLASH)
        code, out, err = invoke(capsys, "run", str(path), "--rules", "rqm5")
        assert code == 1
        assert out == ""
        assert err == f"{path}: concurrent events 1 and 2 do not commute on ['S']\n"

    def test_pointer_cell_label_collision_exit_1(self, capsys, tmp_path):
        path = tmp_path / "collide.wfs"
        path.write_text(
            "scenario collide\nsystem S 2\nagent alice record A 3 init 0\n"
            "basis mine on 2 labels a, cell2 vectors [1, 0] ; [0, 1]\n"
            "prepare state [0.6+0i, 0.8+0i] on S\n"
            "interact alice on S basis mine record A\n"
        )
        for rules in it.RULE_KINDS:
            code, out, err = invoke(capsys, "run", str(path), "--rules", rules)
            assert code == 1
            assert out == ""
            assert err.startswith(f"{path}: event 1: basis label 'cell2' collides")
            assert "Traceback" not in err

    def test_non_finite_label_exit_1(self, capsys, tmp_path):
        # JSON has no infinite number, so such a label never reaches a report
        path = tmp_path / "inf.wfs"
        path.write_text(
            "scenario inf\nsystem S 2\nagent alice record A 2 init 0\nobserver bob\n"
            "basis big on 2 labels 1e999, 0 vectors [1, 0] ; [0, 1]\n"
            "prepare state [0.6+0i, 0.8+0i] on S\n"
            "interact alice on S basis big record A\n"
            "read bob record alice.A result rb\n"
        )
        for rules in it.RULE_KINDS:
            code, out, err = invoke(capsys, "run", str(path), "--rules", rules, "--format", "json")
            assert (code, out) == (1, "")
            assert err.startswith(f"{path}: event 1: basis 'big' has a non-finite label inf")
            assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python converts integers of any length")
    @pytest.mark.parametrize("command", ["parse", "run"])
    def test_long_integer_exit_1_with_location(self, capsys, tmp_path, command):
        path = tmp_path / "long.wfs"
        path.write_text("scenario x\nsystem S " + "9" * 5000 + "\n")
        args = (command, str(path)) + (("--rules", "orthodox") if command == "run" else ())
        code, out, err = invoke(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith(f"{path}: line 2, column 10: integer of 5000 digits is too long")
        assert "Traceback" not in err

    def test_disturbed_conditioning_record_exit_1_under_rqm5(self, capsys, tmp_path):
        for text, fact in ((REREAD, "'alice.A1'=0"), (CORRELATED_READ, "'bob.B'=0")):
            path = tmp_path / "disturbed.wfs"
            path.write_text(text)
            code, out, err = invoke(capsys, "run", str(path), "--rules", "rqm5")
            assert code == 1
            assert out == ""
            assert err == (
                f"{path}: conditioning on fact {fact} has zero probability; "
                "the record, or a record correlated with it, was disturbed after the fact was produced\n"
            )
            for rules in ("orthodox", "cpl"):
                assert invoke(capsys, "run", str(path), "--rules", rules)[0] == 0

    def test_failing_table_reports_one_error_for_every_seed(self, capsys, tmp_path):
        # the table is built before the sampled run, so its error is the one
        # reported, whichever history the seed would sample
        path = tmp_path / "two_failures.wfs"
        path.write_text(TWO_FAILURES)
        want = (f"{path}: conditioning on fact 'alice.A1'=0 has zero probability; "
                "the record, or a record correlated with it, was disturbed after the fact was produced\n")
        for seed in range(8):
            assert invoke(capsys, "run", str(path), "--rules", "rqm5", "--seed", str(seed)) == (1, "", want)

    def test_branch_limit_exit_1(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "chain3.wfs"
        path.write_text(CHAIN3)
        monkeypatch.setattr(it, "BRANCH_LIMIT", 10)
        code, out, err = invoke(capsys, "run", str(path), "--rules", "rqm5")
        assert code == 1
        assert out == ""
        assert err == f"{path}: scenario 'chain3' exceeds 10 branches\n"

    def test_entry_limit_exit_1(self, capsys, tmp_path):
        # a 12000 x 12000 premeasurement, 2.15 GiB: refused before allocating
        path = tmp_path / "big.wfs"
        path.write_text("scenario big\nsystem S 2\nagent a record R 6000 init 0\nobserver w\n"
                        "prepare state [0.6+0i, 0.8+0i] on S\ninteract a on S basis basis1 record R\n"
                        "read w record a.R result r\n")
        code, out, err = invoke(capsys, "run", str(path), "--rules", "orthodox")
        assert code == 1
        assert out == ""
        assert err == (f"{path}: scenario 'big': event 1 builds an array of 144000000 entries, "
                       f"over the limit of {it.ENTRY_LIMIT}\n")


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
        assert a["result"]["parameters"] == {"fact_holder": "agent"}
        assert b["result"]["parameters"] == {"fact_holder": "both"}

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
            ("check", "cpl", "--c=-0.3,1.3"),                  # negative entry
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

    @pytest.mark.parametrize("args,fragment", [
        # off by 5e-9: inside the old 1e-8 check, outside the kernel's 1e-10
        (("check", "epr", "--c", "0.3,0.700000005"), "check epr: coefficients are not normalized"),
        (("check", "cpl", "--c", "0.3,0.700000005"), "check cpl: coefficients are not normalized"),
        # a probability of 1e-15 lies below the engine's PROB_EPS
        (("check", "epr", "--c", "1e-15,0.999999999999999"), "check epr: degenerate preparation"),
        (("check", "cpl", "--c", "nan,1"), "check cpl: probabilities must be finite"),
        (("check", "epr", "--c", "nan,1"), "check epr: probabilities must be finite"),
        (("check", "epr", "--c", "inf,0"), "check epr: probabilities must be finite"),
        # the = form keeps argparse from reading the value as an option
        (("check", "cpl", "--c=-0.3,1.3"), "check cpl: probabilities must be nonnegative"),
        # the policy is the ghz analysis's; epr and cpl would drop it
        (("check", "epr", "--fact-holder", "both"), "check epr: --fact-holder applies to the ghz analysis only"),
        (("check", "cpl", "--fact-holder", "agent"), "check cpl: --fact-holder applies to the ghz analysis only"),
    ])
    def test_bad_parameters_message(self, capsys, args, fragment):
        code, out, err = invoke(capsys, *args)
        assert code == 1
        assert out == ""
        assert fragment in err

    def test_oversized_cpl_is_refused_before_allocating(self, capsys):
        # 65 outcomes need a 4225 x 4225 premeasurement (272 MiB); 64 is the
        # largest the entry limit admits
        probabilities = ",".join([str(1 / 65)] * 65)
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, "check", "cpl", "--c", probabilities)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err == (f"check cpl: 65 outcomes build a premeasurement of {65 ** 4} entries, "
                       f"over the limit of {it.ENTRY_LIMIT}\n")
        assert peak < 1 << 22
        assert (64 * 64) ** 2 <= it.ENTRY_LIMIT < 65 ** 4

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

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            args = ("check", "cpl", "--c", "0.3,0.7", "--ra", "1", "--format", "json")
            first = invoke(capsys, *args)
            # a usage error and an early exit leave the parser as it was
            assert invoke(capsys, "run", str(SCENARIOS / "cpl.wfs"), "--rules", "bogus")[0] == 1
            assert invoke(capsys, "--version")[0] == 0
            assert invoke(capsys, *args) == first
            assert built == [1]
        finally:
            cli._parser.cache_clear()


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
