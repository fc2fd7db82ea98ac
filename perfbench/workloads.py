"""Seeded inputs and the item list of each workload.

``setup(workload, seed, directory)`` draws every coefficient and sampling
seed from a generator seeded with the workload and the seed, writes the scenarios as canonical ``.wfs``
text into ``directory``, parses and validates them, checks that
``parse(dumps(s)) == s`` holds on each, and returns one pass of work items.
wfcheck only ever sees the generated text (or the scenarios parsed from it)
and the argv built here.

Set-up and items reach wfcheck through module attributes at call time
(``sc.parse``, ``it.exact_joint``, ``cli.main``), so the traced run can wrap
those functions from outside.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from pathlib import Path

import wfcheck
from wfcheck import cli
from wfcheck import interpret as it
from wfcheck import scenario as sc

import oracle
from oracle import Item

# chain(n) sizes of one chain_rqm5 pass; two n=4 solves for each n=5 solve put
# the median on n=4 and the tail on n=5 for any plausible number of passes
RQM5_PASS = (4, 4, 5)
COLLAPSE_SIZES = (6, 7)
COLLAPSE_RULES = ("orthodox", "cpl")
COLLAPSE_RUNS = 4  # seeded single-history runs per (n, rules) case; puts the median mid-class
PAPER_RULES = ("orthodox", "rqm5", "cpl")


class SetupError(RuntimeError):
    """A generated input failed to parse, validate or round-trip."""


# ---------------------------------------------------------------------------
# canonical text of the generated scenarios


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _amplitudes(p: tuple[float, ...]) -> list[float]:
    return [math.sqrt(v) for v in p]


def _draw_pair(rng: random.Random, low: float = 0.2, high: float = 0.8) -> tuple[float, float]:
    p0 = rng.uniform(low, high)
    return (p0, 1.0 - p0)


def chain_text(name: str, probs: list[tuple[float, float]]) -> str:
    """n systems prepared independently; friend f_i copies S_i into its record
    A; the outsider w reads every record."""
    n = len(probs)
    lines = [f"scenario {name}"]
    lines += [f"system S{i} 2" for i in range(1, n + 1)]
    lines += [f"agent f{i} record A 2 init 0" for i in range(1, n + 1)]
    lines.append("observer w")
    for i, p in enumerate(probs, start=1):
        c0, c1 = _amplitudes(p)
        lines.append(f"prepare state [{_num(c0)}+0i, {_num(c1)}+0i] on S{i}")
    lines += [f"interact f{i} on S{i} basis basis1 record A" for i in range(1, n + 1)]
    lines += [f"read w record f{i}.A result r{i}" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def pair_text(p: tuple[float, float]) -> str:
    """The bundled epr scenario with seeded Schmidt coefficients."""
    c0, c1 = _amplitudes(p)
    return "\n".join([
        "scenario epr_pair",
        "system SA 2",
        "system SB 2",
        "agent alice record A 2 init 0",
        "observer bob",
        f"prepare schmidt({_num(c0)}, {_num(c1)}) on SA, SB",
        "interact alice on SA basis basis1 record A",
        "measure bob on SB basis basis1 result rb",
    ]) + "\n"


def readout_text(p: tuple[float, float]) -> str:
    """The bundled cpl scenario with a seeded preparation."""
    c0, c1 = _amplitudes(p)
    return "\n".join([
        "scenario record_readout",
        "system S 2",
        "agent alice record A 2 init 0",
        "observer bob",
        f"prepare state [{_num(c0)}+0i, {_num(c1)}+0i] on S",
        "interact alice on S basis basis1 record A",
        "read bob record alice.A result rb",
    ]) + "\n"


def _load(directory: Path, name: str, text: str) -> tuple[Path, sc.Scenario]:
    path = directory / f"{name}.wfs"
    path.write_text(text, encoding="utf-8")
    try:
        scenario = sc.parse(path.read_text(encoding="utf-8"))
    except sc.ScenarioError as exc:
        raise SetupError(f"{path.name}: {exc}") from exc
    problems = sc.validate(scenario)
    if problems:
        raise SetupError(f"{path.name}: {problems[0].reason}")
    if sc.parse(sc.dumps(scenario)) != scenario:
        raise SetupError(f"{path.name}: parse(dumps(s)) != s")
    return path, scenario


# ---------------------------------------------------------------------------
# workloads


def _cli(argv: list[str]) -> oracle.CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return oracle.CliOutput(code, out.getvalue(), err.getvalue())


def _paper(rng: random.Random, directory: Path) -> list[Item]:
    pair_p = _draw_pair(rng, 0.1, 0.4)  # distinct weights, so `check epr` is well posed
    readout_p = _draw_pair(rng, 0.1, 0.9)
    files = {
        "ghz": (wfcheck.bundled_scenario_text("ghz"), ("alice.A1", "alice.A2", "alice.A3", "b1", "b2", "b3"),
                oracle.ghz_table, {}),
        "pair": (pair_text(pair_p), ("alice.A", "rb"),
                 lambda rules: oracle.pair_table(pair_p, rules), {}),
        "readout": (readout_text(readout_p), ("alice.A", "rb"),
                    lambda rules: oracle.readout_table(readout_p, rules), {"alice.A": readout_p}),
    }
    parse_items, run_items = [], []
    for name, (text, keys, table, probs) in files.items():
        path, _ = _load(directory, name, text)
        path = os.path.relpath(path)  # keeps the output bytes independent of where the checkout lives
        argv = ["parse", path]
        parse_items.append(Item(f"parse {name}", lambda a=argv: _cli(a),
                                lambda out, t=text: oracle.check_parse(out, t)))
        for rules in PAPER_RULES:
            seed, samples = rng.randrange(1 << 20), rng.randrange(1000, 5001)
            argv = ["run", path, "--rules", rules, "--seed", str(seed),
                    "--samples", str(samples), "--format", "json"]
            check = (lambda out, a=argv, s=seed, n=samples, k=keys, w=table(rules), r=rules, p=probs:
                     oracle.check_cli_run(out, a, s, n, k, w, r, p))
            run_items.append(Item(f"run {name} {rules}", lambda a=argv: _cli(a), check))

    q = [rng.uniform(0.2, 1.0) for _ in range(3)]
    q = tuple(v / sum(q) for v in q)
    r = rng.randrange(3)
    epr_argv = ["check", "epr", "--c", f"{_num(pair_p[0])},{_num(pair_p[1])}", "--format", "json"]
    cpl_argv = ["check", "cpl", "--c", ",".join(_num(v) for v in q), "--ra", str(r), "--format", "json"]
    ghz_argv = ["check", "ghz", "--format", "json"]
    check_items = [
        Item("check epr", lambda: _cli(epr_argv), lambda out: oracle.check_cli_epr(out, epr_argv, pair_p)),
        Item("check cpl", lambda: _cli(cpl_argv), lambda out: oracle.check_cli_cpl(out, cpl_argv, q, r)),
        Item("check ghz", lambda: _cli(ghz_argv), lambda out: oracle.check_cli_ghz(out, ghz_argv)),
    ]
    return parse_items + run_items + check_items


def _chain(directory: Path, name: str, probs: list[tuple[float, float]]):
    _, scenario = _load(directory, name, chain_text(name, probs))
    keys = tuple(f"f{i}.A" for i in range(1, len(probs) + 1)) + tuple(
        f"r{i}" for i in range(1, len(probs) + 1))
    return scenario, keys


def _exact_item(label: str, scenario, rules: str, want: dict) -> Item:
    ruleset = it.RuleSet(rules)
    return Item(label, lambda: it.exact_joint(scenario, ruleset),
                lambda out: oracle.check_joint(out, want))


def _chain_rqm5(rng: random.Random, directory: Path) -> list[Item]:
    items = []
    for index, n in enumerate(RQM5_PASS):
        probs = [_draw_pair(rng) for _ in range(n)]
        scenario, _ = _chain(directory, f"chain{n}_{index}", probs)
        items.append(_exact_item(f"exact chain{n} rqm5", scenario, "rqm5",
                                 oracle.chain_table(probs, "rqm5")))
    return items


def _chain_collapse(rng: random.Random, directory: Path) -> list[Item]:
    items = []
    for n in COLLAPSE_SIZES:
        probs = [_draw_pair(rng) for _ in range(n)]
        scenario, keys = _chain(directory, f"chain{n}", probs)
        viewers = tuple(f"f{i}" for i in range(1, n + 1)) + ("w",)
        records = {f"f{i}.A": p for i, p in enumerate(probs, start=1)}
        for rules in COLLAPSE_RULES:
            want = oracle.chain_table(probs, rules)
            items.append(_exact_item(f"exact chain{n} {rules}", scenario, rules, want))
            ruleset = it.RuleSet(rules)
            for _ in range(COLLAPSE_RUNS):
                seed = rng.randrange(1 << 20)
                items.append(Item(
                    f"run chain{n} {rules}",
                    lambda s=scenario, rs=ruleset, k=seed: it.run(s, rs, seed=k),
                    lambda out, w=want, r=rules, k=keys, p=records, v=viewers:
                        oracle.check_history(out, k, w, r, p, v),
                ))
    return items


def setup(workload: str, seed: int, directory: Path) -> list[Item]:
    """Generate, parse and validate the inputs; return one pass of items."""
    item_lists = {"paper": _paper, "chain_rqm5": _chain_rqm5, "chain_collapse": _chain_collapse}
    directory.mkdir(parents=True, exist_ok=True)
    return item_lists[workload](random.Random(f"{workload}:{seed}"), directory)
