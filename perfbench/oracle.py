"""Closed-form expectations and the output checker.

Nothing here calls wfcheck: every expected table is derived by hand from the
seeded preparation probabilities, so a wrong engine cannot vouch for itself.
Each ``check_*`` function returns a list of problems; an empty list means the
output matches its closed form to ``TOL``.

Hand derivations (``p[i][v]`` is the Born weight of value ``v`` on system i):

- chain(n), keys ``f1.A..fn.A, r1..rn``: orthodox and cpl give the rows
  ``(a, r=a)`` with weight ``prod p[i][a_i]`` (a collapse or a pin copies the
  record into the readout); rqm5 gives every ``(a, r)`` with weight
  ``prod p[i][a_i] * p[i][r_i]`` (the outsider's read ignores the friend's
  relative fact).
- epr-shaped pair, keys ``alice.A, rb``: orthodox ``(a, a)`` with ``p[a]``;
  rqm5 and cpl the product ``p[a] * p[b]`` (bob measures, he does not read a
  record, so no pin applies).
- record readout, keys ``alice.A, rb``: like one chain link.
- ghz, keys ``alice.A1..A3, b1..b3`` with +-1 labels: orthodox is uniform
  1/64; rqm5 and cpl are uniform 1/32 on the rows with ``b1*b2*b3 = +1``.
- ``check epr``: agreement 1.0 / ``p0^2 + p1^2`` / 1.0, verdict ``ambiguity``.
- ``check cpl``: mismatch ``1 - p[r]``, verdict ``contradiction``.
- ``check ghz``: 0 of 8 assignments, ``(A1*A2*A3)^2 = -1``, ``contradiction``.
- exit codes: 0 for ``parse`` and ``run``, 3 for a check that finds an
  ambiguity or a contradiction.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

TOL = 1e-12
EXIT_OK = 0
EXIT_FINDING = 3
SIGMAS = 6.0  # sampled frequencies must lie within this many standard errors


@dataclass(frozen=True)
class Item:
    """One timed unit of work and the closed-form check of its output."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass(frozen=True)
class CliOutput:
    """What one in-process ``wfcheck`` invocation returned."""

    code: int
    stdout: str
    stderr: str


def _prod(values) -> float:
    out = 1.0
    for v in values:
        out *= v
    return out


# ---------------------------------------------------------------------------
# expected tables


def chain_table(probs: list[tuple[float, float]], rules: str) -> dict[tuple, float]:
    n = len(probs)
    table: dict[tuple, float] = {}
    for a in itertools.product((0, 1), repeat=n):
        wa = _prod(probs[i][a[i]] for i in range(n))
        if rules == "rqm5":
            for r in itertools.product((0, 1), repeat=n):
                table[a + r] = wa * _prod(probs[i][r[i]] for i in range(n))
        else:
            table[a + a] = wa
    return table


def pair_table(p: tuple[float, float], rules: str) -> dict[tuple, float]:
    if rules == "orthodox":
        return {(a, a): p[a] for a in (0, 1)}
    return {(a, b): p[a] * p[b] for a in (0, 1) for b in (0, 1)}


def readout_table(p: tuple[float, float], rules: str) -> dict[tuple, float]:
    return chain_table([p], rules)


def ghz_table(rules: str) -> dict[tuple, float]:
    rows = itertools.product((1, -1), repeat=6)
    if rules == "orthodox":
        return {row: 1.0 / 64.0 for row in rows}
    return {row: 1.0 / 32.0 for row in rows if row[3] * row[4] * row[5] == 1}


# ---------------------------------------------------------------------------
# comparisons


def compare_tables(got: dict, want: dict, what: str = "table") -> list[str]:
    problems = []
    for key in sorted(set(got) | set(want), key=repr):
        g = got.get(key, 0.0)
        w = want.get(key, 0.0)
        if not isinstance(g, float) or not abs(g - w) <= TOL:
            problems.append(f"{what} {key}: got {g!r}, closed form {w!r}")
    return problems


def check_joint(got, want: dict) -> list[str]:
    if not isinstance(got, dict):
        return [f"exact_joint returned {type(got).__name__}, not a table"]
    return compare_tables(got, want, "exact_joint")


def _close(got, want: float, what: str) -> list[str]:
    if not isinstance(got, (int, float)) or not abs(got - want) <= TOL:
        return [f"{what}: got {got!r}, closed form {want!r}"]
    return []


def _check_pins(pins, point: dict, probs: dict, rules: str) -> list[str]:
    """Pins fire only under cpl; each copies the fact and overrides its Born weight."""
    if rules != "cpl":
        return [f"{len(pins)} pins under {rules}"] if pins else []
    if len(pins) != len(probs):
        return [f"{len(pins)} pins, expected one per read ({len(probs)})"]
    problems = []
    for record, value, weight in pins:
        if point.get(record) != value:
            problems.append(f"pin {record}={value!r} differs from the fact {point.get(record)!r}")
        elif value in (0, 1):
            problems += _close(weight, probs[record][value], f"pin {record} born weight")
        else:
            problems.append(f"pin {record} has label {value!r}")
    return problems


def check_history(result, keys: tuple[str, ...], want: dict, rules: str,
                  probs: dict, viewers: tuple[str, ...]) -> list[str]:
    """A sampled history from the library ``run``: a supported point, consistent
    pins, and a normalized perspective for every agent and observer."""
    try:
        point = {e.observable: e.outcome for e in result.ledger.entries}
        point.update(result.results)
        row = tuple(point[k] for k in keys)
        pins = [(p.record, p.value, p.born_weight) for p in result.pins]
        norms = {name: _norm(ps.state) for name, ps in result.perspectives.items()}
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"run result lacks a field: {exc!r}"]
    problems = []
    if not want.get(row, 0.0) > 0.0:
        problems.append(f"sampled history {row} has closed-form probability 0")
    problems += _check_pins(pins, point, probs, rules)
    if sorted(norms) != sorted(viewers):
        problems.append(f"perspectives for {sorted(norms)}, expected {sorted(viewers)}")
    for name, norm in norms.items():
        problems += _close(norm, 1.0, f"perspective {name} norm")
    return problems


def _norm(state) -> float:
    amplitudes = getattr(state, "amplitudes", None)
    if amplitudes is not None:
        return float(np.vdot(amplitudes, amplitudes).real)
    return float(np.trace(state.matrix).real)


# ---------------------------------------------------------------------------
# command-line outputs


def _envelope(out, argv: list[str], code: int, seed) -> tuple[dict | None, list[str]]:
    if not isinstance(out, CliOutput):
        return None, [f"expected a CLI result, got {type(out).__name__}"]
    problems = []
    if out.code != code:
        problems.append(f"exit code {out.code}, expected {code}")
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        return None, problems + ["stdout is not one JSON document"]
    if doc.get("invocation") != argv:
        problems.append(f"invocation {doc.get('invocation')!r} differs from argv")
    if doc.get("seed") != seed:
        problems.append(f"seed {doc.get('seed')!r}, expected {seed!r}")
    if not isinstance(doc.get("result"), dict):
        return None, problems + ["no result object"]
    return doc["result"], problems


def check_parse(out, text: str) -> list[str]:
    """Canonical input must come back byte for byte."""
    if not isinstance(out, CliOutput):
        return [f"expected a CLI result, got {type(out).__name__}"]
    problems = [] if out.code == EXIT_OK else [f"exit code {out.code}, expected {EXIT_OK}"]
    if out.stdout != text:
        problems.append("canonical reprint differs from the canonical input")
    return problems


def check_cli_run(out, argv: list[str], seed: int, samples: int, keys: tuple[str, ...],
                  want: dict, rules: str, probs: dict) -> list[str]:
    result, problems = _envelope(out, argv, EXIT_OK, seed)
    if result is None:
        return problems
    try:
        if tuple(result["exact"]["keys"]) != keys:
            problems.append(f"keys {result['exact']['keys']}, expected {list(keys)}")
        exact = {tuple(r["outcome"]): r["probability"] for r in result["exact"]["rows"]}
        problems += compare_tables(exact, want, "exact")
        sampled = result["sampled"]
        counts = {tuple(r["outcome"]): r["count"] for r in sampled["rows"]}
        point = {e["observable"]: e["outcome"] for e in result["ledger"]}
        point.update(result["outcomes"])
        pins = [(p["record"], p["value"], p["born_weight"]) for p in result["pins"]]
        views = result["perspectives"]
    except (KeyError, TypeError) as exc:
        return problems + [f"run payload lacks a field: {exc!r}"]
    if sampled.get("n") != samples or sum(counts.values()) != samples:
        problems.append(f"sampled n {sampled.get('n')!r} / total {sum(counts.values())}, expected {samples}")
    for key, count in counts.items():
        p = want.get(key, 0.0)
        if not p > 0.0:
            problems.append(f"sampled outcome {key} has closed-form probability 0")
            continue
        spread = SIGMAS * math.sqrt(p * (1.0 - p) / samples) + 1.0 / samples
        if abs(count / samples - p) > spread:
            problems.append(f"sampled outcome {key}: frequency {count / samples} vs {p}")
    row = tuple(point.get(k) for k in keys)
    if not want.get(row, 0.0) > 0.0:
        problems.append(f"sampled history {row} has closed-form probability 0")
    problems += _check_pins(pins, point, probs, rules)
    for name, view in views.items():
        if view.get("kind") == "vector":
            norm = sum(re * re + im * im for re, im in view["amplitudes"])
        else:
            norm = sum(view["matrix"][i][i][0] for i in range(len(view["matrix"])))
        problems += _close(norm, 1.0, f"perspective {name} norm")
    return problems


def _finding_values(result: dict) -> list[dict]:
    return [dict((label, value) for label, value in f["values"]) for f in result["findings"]]


def check_cli_epr(out, argv: list[str], p: tuple[float, float]) -> list[str]:
    result, problems = _envelope(out, argv, EXIT_FINDING, None)
    if result is None:
        return problems
    try:
        agree, invariance = _finding_values(result)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"epr findings malformed: {exc!r}"]
    problems += _close(agree.get("orthodox"), 1.0, "epr orthodox agreement")
    problems += _close(agree.get("rqm5/separate"), p[0] ** 2 + p[1] ** 2, "epr rqm5/separate agreement")
    problems += _close(agree.get("rqm5/joint"), 1.0, "epr rqm5/joint agreement")
    problems += _close(invariance.get("rqm5"), 0.0, "epr conditioning shift")
    if result.get("verdict") != "ambiguity":
        problems.append(f"epr verdict {result.get('verdict')!r}, expected 'ambiguity'")
    return problems


def check_cli_cpl(out, argv: list[str], q: tuple[float, ...], r: int) -> list[str]:
    result, problems = _envelope(out, argv, EXIT_FINDING, None)
    if result is None:
        return problems
    try:
        mismatch, shift = _finding_values(result)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"cpl findings malformed: {exc!r}"]
    problems += _close(mismatch.get("rqm5"), 1.0 - q[r], "cpl Born mismatch")
    problems += _close(mismatch.get("cpl"), 0.0, "cpl pinned mismatch")
    problems += _close(shift.get("all"), 0.0, "cpl reduced-state shift")
    if result.get("verdict") != "contradiction":
        problems.append(f"cpl verdict {result.get('verdict')!r}, expected 'contradiction'")
    return problems


def check_cli_ghz(out, argv: list[str]) -> list[str]:
    result, problems = _envelope(out, argv, EXIT_FINDING, None)
    if result is None:
        return problems
    try:
        values = _finding_values(result)
        search = result["assignment_search"]
        stable = [v["stable"] for v in values[:4]]
        violation = values[4]["stable"]
        surviving = values[5]["cpl"]
    except (KeyError, TypeError, IndexError) as exc:
        return problems + [f"ghz findings malformed: {exc!r}"]
    for i, value in enumerate(stable):
        problems += _close(value, 1.0, f"ghz parity constraint {i}")
    problems += _close(violation, 0.0, "ghz branch violation")
    problems += _close(surviving, 0.0, "ghz surviving assignments")
    if search.get("domain_size") != 8 or search.get("satisfying") != []:
        problems.append(f"ghz search {search.get('domain_size')!r} / {search.get('satisfying')!r}, expected 8 / []")
    if search.get("formal_square") != "(A1*A2*A3)^2 = -1":
        problems.append(f"ghz formal square {search.get('formal_square')!r}")
    if result.get("verdict") != "contradiction":
        problems.append(f"ghz verdict {result.get('verdict')!r}, expected 'contradiction'")
    return problems


# ---------------------------------------------------------------------------
# counting


class Tally:
    """Items attempted and failed; an item fails when it raises or when its
    output is off its closed form."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.examples) < 20:
                self.examples.append(f"{name}: {problems[0]}")


def execute(item, tally: Tally, clock, observe=None) -> float:
    """Run one item, check its output, and return the seconds its call took.
    ``observe``, when given, also sees each output that was returned."""
    start = clock()
    try:
        out = item.call()
    except Exception as exc:  # an item that raises is a failure, not a crash
        elapsed = clock() - start
        tally.record(item.name, [f"raised {exc!r}"])
        return elapsed
    elapsed = clock() - start
    if observe is not None:
        observe(out)
    tally.record(item.name, item.check(out))
    return elapsed
