"""Self-test of the output checker.

Feeds hand-built outputs through the same ``oracle.execute`` path that counts
the benchmark's failures: each correct output must pass, and each perturbed
table, wrong exit code, wrong verdict or raising item must count as exactly
one failure.  run.py calls ``run()`` before it times anything; on its own:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import oracle
from oracle import CliOutput, Item

DRIFT = 1e-9  # far above the checker's 1e-12 tolerance


def _doc(argv: list[str], seed, result: dict) -> str:
    return json.dumps({"invocation": argv, "seed": seed, "result": result})


def _check_result(name: str, rows: list[tuple[str, float]], verdict: str, search=None) -> dict:
    return {"name": name, "verdict": verdict, "assignment_search": search,
            "findings": [{"values": [list(v) for v in values]} for values in rows]}


def _cases() -> list[tuple[Item, bool]]:
    """(item, whether the checker must count it as a failure)."""
    cases: list[tuple[Item, bool]] = []

    def add(name: str, out, check, fails: bool) -> None:
        cases.append((Item(name, lambda: out, check), fails))

    # a chain(2) table under rqm5 and under cpl
    probs = [(0.3, 0.7), (0.6, 0.4)]
    for rules in ("rqm5", "cpl"):
        want = oracle.chain_table(probs, rules)
        first = next(iter(want))
        check = lambda out, w=want: oracle.check_joint(out, w)
        add(f"chain {rules} exact", dict(want), check, False)
        add(f"chain {rules} perturbed", {**want, first: want[first] + DRIFT}, check, True)
        add(f"chain {rules} missing row", {k: v for k, v in want.items() if k != first}, check, True)
        add(f"chain {rules} extra row", {**want, ("x",): 1e-6}, check, True)

    # canonical reprint
    text = "scenario s\nsystem S 2\n"
    check = lambda out: oracle.check_parse(out, text)
    add("parse exact", CliOutput(0, text, ""), check, False)
    add("parse wrong exit code", CliOutput(1, text, ""), check, True)
    add("parse altered text", CliOutput(0, text.replace("2", "3"), ""), check, True)

    # check ghz
    argv = ["check", "ghz", "--format", "json"]
    search = {"domain_size": 8, "satisfying": [], "formal_square": "(A1*A2*A3)^2 = -1"}
    rows = [[("stable", 1.0)]] * 4 + [[("stable", 0.0)], [("cpl", 0.0)]]
    good = _check_result("ghz", rows, "contradiction", search)
    check = lambda out, a=argv: oracle.check_cli_ghz(out, a)
    add("ghz exact", CliOutput(3, _doc(argv, None, good), ""), check, False)
    add("ghz wrong exit code", CliOutput(0, _doc(argv, None, good), ""), check, True)
    add("ghz an assignment survives", CliOutput(3, _doc(argv, None, {
        **good, "assignment_search": {**search, "satisfying": [[["A1", 1]]]}}), ""), check, True)
    add("ghz wrong verdict", CliOutput(3, _doc(argv, None, {**good, "verdict": "consistent"}), ""), check, True)

    # check epr and check cpl
    p = (0.3, 0.7)
    argv = ["check", "epr", "--c", "0.3,0.7", "--format", "json"]
    check = lambda out, a=argv: oracle.check_cli_epr(out, a, p)
    agree = p[0] ** 2 + p[1] ** 2
    for label, value, fails in (("exact", agree, False), ("perturbed", agree + DRIFT, True)):
        rows = [[("orthodox", 1.0), ("rqm5/separate", value), ("rqm5/joint", 1.0)], [("rqm5", 0.0)]]
        add(f"epr {label}", CliOutput(3, _doc(argv, None, _check_result("epr", rows, "ambiguity")), ""),
            check, fails)
    q, r = (0.2, 0.3, 0.5), 1
    argv = ["check", "cpl", "--c", "0.2,0.3,0.5", "--ra", "1", "--format", "json"]
    check = lambda out, a=argv: oracle.check_cli_cpl(out, a, q, r)
    for label, value, code, fails in (("exact", 0.7, 3, False), ("perturbed", 0.7 + DRIFT, 3, True),
                                      ("wrong exit code", 0.7, 0, True)):
        rows = [[("rqm5", value), ("cpl", 0.0)], [("all", 0.0)]]
        add(f"cpl {label}", CliOutput(code, _doc(argv, None, _check_result("cpl", rows, "contradiction")), ""),
            check, fails)

    # run on a record readout under cpl
    keys = ("alice.A", "rb")
    want = oracle.readout_table(p, "cpl")
    argv = ["run", "readout.wfs", "--rules", "cpl", "--seed", "5", "--samples", "100", "--format", "json"]
    check = lambda out: oracle.check_cli_run(out, argv, 5, 100, keys, want, "cpl", {"alice.A": p})

    def run_doc(exact=want, pin_weight=p[1]) -> str:
        return _doc(argv, 5, {
            "exact": {"keys": list(keys), "rows": [{"outcome": list(k), "probability": v}
                                                   for k, v in exact.items()]},
            "sampled": {"n": 100, "rows": [{"outcome": [0, 0], "count": 30},
                                           {"outcome": [1, 1], "count": 70}]},
            "ledger": [{"observable": "alice.A", "outcome": 1}],
            "outcomes": {"rb": 1},
            "pins": [{"record": "alice.A", "value": 1, "born_weight": pin_weight}],
            "perspectives": {"bob": {"kind": "vector", "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}},
        })

    add("run exact", CliOutput(0, run_doc(), ""), check, False)
    add("run perturbed table", CliOutput(0, run_doc(exact={**want, (0, 0): p[0] + DRIFT}), ""), check, True)
    add("run wrong exit code", CliOutput(3, run_doc(), ""), check, True)
    add("run pin weight off", CliOutput(0, run_doc(pin_weight=p[0]), ""), check, True)

    def boom():
        raise RuntimeError("item raised")

    cases.append((Item("raising item", boom, lambda out: []), True))
    return cases


def run() -> list[str]:
    """Return the cases the checker misjudged; empty when it works."""
    wrong = []
    for item, fails in _cases():
        tally = oracle.Tally()
        oracle.execute(item, tally, perf_counter)
        if tally.attempted != 1 or tally.failed != int(fails):
            wrong.append(f"{item.name}: counted {tally.failed} failures, expected {int(fails)}")
    return wrong


if __name__ == "__main__":
    misjudged = run()
    for line in misjudged:
        print(line)
    print(f"checker self-test: {len(_cases())} cases, {len(misjudged)} misjudged")
    sys.exit(1 if misjudged else 0)
