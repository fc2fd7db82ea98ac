"""Print one ``key sha256`` line per engine output over a fixed comparison set.

A change that should keep every output is checked by running this once on
the parent's sources and once on the change's, and diffing the two:

    PYTHONPATH=/path/to/parent/src python tools/outputs_digest.py > before.txt
    PYTHONPATH=src python tools/outputs_digest.py > after.txt
    diff before.txt after.txt

The set is the bundled scenarios, chain(1..4) (friend f_i copies qubit S_i
at c² = 0.3/0.7, the outsider w reads every record), GHZ(3) and GHZ(4) (a
literal GHZ state, one agent writing A1..An in basis3, wigner's n
concurrent lifted(basis2, basis3) measures) and every valid scenario
literal in ``tests/``, each under five rule variants.  For each it digests
the ``exact_joint`` table, four seeded ``run`` histories with their
perspectives, ``perspective`` for every observer at every ``after``, and
``predicted_distribution`` of every result, plain and given one fact.  The
CLI's exit code, stdout and stderr are digested for ``parse``, ``run`` and
``check`` invocations on the same files.  Floats are digested exactly (the
bytes of arrays, ``float.hex`` of scalars), and an error as its type and
message, so two trees print the same lines only where their outputs agree
bit for bit.  The lines do not depend on the run: the scenario files are
written to one temporary directory that the CLI is run from, by name.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from wfcheck import cli
from wfcheck import interpret as it
from wfcheck import scenario as sc

TESTS = Path(__file__).resolve().parent.parent / "tests"
RULE_VARIANTS = (it.RuleSet.orthodox(), it.RuleSet.rqm5(), it.RuleSet.rqm5("both"),
                 it.RuleSet.rqm5_cpl(), it.RuleSet.rqm5_cpl("both"))
SEEDS = range(4)


def _num(x: float) -> str:
    return format(float(x), ".17g")


def chain_text(n: int) -> str:
    lines = [f"scenario chain{n}"]
    lines += [f"system S{i} 2" for i in range(1, n + 1)]
    lines += [f"agent f{i} record A 2 init 0" for i in range(1, n + 1)]
    lines.append("observer w")
    c0, c1 = math.sqrt(0.3), math.sqrt(0.7)
    lines += [f"prepare state [{_num(c0)}+0i, {_num(c1)}+0i] on S{i}" for i in range(1, n + 1)]
    lines += [f"interact f{i} on S{i} basis basis1 record A" for i in range(1, n + 1)]
    lines += [f"read w record f{i}.A result r{i}" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def ghz_text(n: int) -> str:
    amps = ["0+0i"] * (1 << n)
    amps[0] = amps[-1] = f"{_num(math.sqrt(0.5))}+0i"
    systems = [f"S{i}" for i in range(1, n + 1)]
    lines = [f"scenario ghz{n}"] + [f"system {sid} 2" for sid in systems]
    lines.append("agent alice " + " ".join(f"record A{i} 2 init 0" for i in range(1, n + 1)))
    lines.append("observer wigner")
    lines.append(f"prepare state [{', '.join(amps)}] on {', '.join(systems)}")
    lines += [f"interact alice on S{i} basis basis3 record A{i}" for i in range(1, n + 1)]
    lines += [f"measure wigner on S{i}, alice.A{i} basis lifted(basis2, basis3) result b{i}"
              + (" concurrent" if i > 1 else "") for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def literals() -> list[tuple[str, str]]:
    """(name, text) of every scenario literal in the tests that validates."""
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        for text in re.findall(r'"""\n?(scenario .*?)"""', path.read_text(encoding="utf-8"), re.S):
            text = text.replace("\\\n", "").replace("{mid}", "")
            try:
                s = sc.parse(text)
            except sc.ScenarioError:
                continue  # an f-string template
            if not sc.validate(s):
                found.append((f"{path.stem}.{s.name}", text))
    return found


def scenarios() -> list[tuple[str, str]]:
    """(name, text) of the comparison set, each text once."""
    named = [(name, sc.bundled_scenario_text(name)) for name in sc.BUNDLED_SCENARIOS]
    named += [(f"chain{n}", chain_text(n)) for n in range(1, 5)]
    named += [(f"ghz{n}", ghz_text(n)) for n in (3, 4)]
    texts: dict[str, str] = {}  # name -> text, each text once
    for name, text in named + literals():
        if text not in texts.values():
            key, k = name, 1
            while key in texts:
                k += 1
                key = f"{name}#{k}"
            texts[key] = text
    return list(texts.items())


def _feed(h, x) -> None:
    """Write a canonical byte form of ``x`` into the hash ``h``."""
    if isinstance(x, np.ndarray):
        h.update(f"array{x.dtype.str}{x.shape}:".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, float):
        h.update(f"float {x.hex()};".encode())
    elif isinstance(x, complex):
        h.update(f"complex {x.real.hex()} {x.imag.hex()};".encode())
    elif isinstance(x, dict):
        h.update(f"dict{len(x)}(".encode())
        for k, v in x.items():
            _feed(h, k)
            _feed(h, v)
        h.update(b")")
    elif isinstance(x, (tuple, list)):
        h.update(f"{type(x).__name__}{len(x)}(".encode())
        for v in x:
            _feed(h, v)
        h.update(b")")
    elif dataclasses.is_dataclass(x):
        h.update(f"{type(x).__name__}(".encode())
        for field in dataclasses.fields(x):
            _feed(h, getattr(x, field.name))
        h.update(b")")
    else:
        h.update(f"{type(x).__name__} {x!r};".encode())


def digest(call) -> str:
    h = hashlib.sha256()
    try:
        _feed(h, call())
    except Exception as exc:  # an error is an output too
        h.update(f"error {type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def engine_lines(name: str, s: sc.Scenario) -> list[tuple[str, str]]:
    lines = []
    n = len(s.timeline)
    observers = [a.name for a in s.agents] + [o.name for o in s.observers]
    binders = [(ev.observer, ev.result) for ev in s.timeline if isinstance(ev, (sc.Measure, sc.ReadRecord))]
    written = [sc.record_key(ev.agent, ev.record) for ev in s.timeline if isinstance(ev, sc.Interact)]
    for rules in RULE_VARIANTS:
        tag = f"{name}/{rules.kind}-{rules.fact_holder}"
        lines.append((f"exact_joint/{tag}", digest(lambda: it.exact_joint(s, rules))))
        for seed in SEEDS:
            lines.append((f"run/{tag}/seed{seed}", digest(lambda: it.run(s, rules, seed))))
        for observer in observers:
            for after in range(-1, n):
                lines.append((f"perspective/{tag}/{observer}/after{after}",
                              digest(lambda: it.perspective(s, rules, observer, after))))
        for observer, result in binders:
            lines.append((f"predicted/{tag}/{result}",
                          digest(lambda: it.predicted_distribution(s, rules, observer, result))))
            if written:
                given = {written[0]: 0}
                lines.append((f"predicted/{tag}/{result}|{written[0]}=0",
                              digest(lambda: it.predicted_distribution(s, rules, observer, result, given))))
    return lines


def cli_invocations(files: list[str]) -> list[list[str]]:
    calls = []
    for path in files:
        calls.append(["parse", path])
        for kind in it.RULE_KINDS:
            calls.append(["run", path, "--rules", kind])
        calls.append(["run", path, "--rules", "cpl", "--seed", "3", "--samples", "500", "--format", "json"])
    calls += [["check", name] for name in cli._CHECK_NAMES]
    calls += [["check", name, "--format", "json"] for name in cli._CHECK_NAMES]
    calls += [["check", "ghz", "--fact-holder", "both"], ["check", "cpl", "--c", "0.2,0.3,0.5", "--ra", "1"],
              ["check", "epr", "--c", "0.3,0.7"], ["run", "missing.wfs", "--rules", "orthodox"]]
    return calls


def cli_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return digest(lambda: (code, out.getvalue(), err.getvalue()))


def main() -> int:
    lines = []
    named = scenarios()
    for name, text in named:
        lines += engine_lines(name, sc.parse(text))
    texts = dict(named)
    # the generated and bundled files, and the two blocks that both fail under rqm5
    cli_files = [name for name in texts if not name.startswith("test_")]
    cli_files.append(next(name for name in texts if name.endswith(".two_failures")))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in cli_files:
                Path(f"{name}.wfs").write_text(texts[name], encoding="utf-8")
            for argv in cli_invocations([f"{name}.wfs" for name in cli_files]):
                lines.append(("cli/" + ",".join(argv), cli_digest(argv)))
        finally:
            os.chdir(here)
    for key, value in lines:
        print(key, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
