"""Command-line front end.

Three subcommands: ``parse`` (validate and reprint a scenario file in canonical
form), ``run`` (execute a scenario under a chosen rule set), and ``check``
(execute one of the named consistency analyses).  Reports go to standard
output in either a line-oriented text form or a single JSON document;
diagnostics go to standard error.

Exit codes are a stable contract:
  0  success / verdict consistent
  1  usage, parse, or validation failure
  2  I/O failure
  3  a check found a contradiction or an ambiguity
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

from . import __version__, checks
from . import interpret as it
from . import scenario as sc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FINDING = 3

_CHECK_NAMES = ("epr", "cpl", "ghz")


class _Failure(Exception):
    """Command abort: message for stderr plus the exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for I/O
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# argparse names the type function in its message for any other error than
# ArgumentTypeError, so a failed conversion raises that too
def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a nonnegative integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _sample_count(text: str) -> int:
    value = _nonnegative_int(text)
    if value >= 1 << 63:  # the multinomial draws int64 counts
        raise argparse.ArgumentTypeError("must be below 2**63")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a finite number") from None
    if not math.isfinite(value):  # JSON has no NaN or Infinity
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wfcheck", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"wfcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="validate a scenario file and print its canonical form")
    p_parse.add_argument("file")
    p_parse.set_defaults(func=cmd_parse)

    p_run = sub.add_parser("run", help="execute a scenario under a rule set")
    p_run.add_argument("file")
    p_run.add_argument("--rules", required=True, choices=it.RULE_KINDS)
    p_run.add_argument("--seed", type=_nonnegative_int, default=0)
    p_run.add_argument("--samples", type=_sample_count, default=0,
                       help="0 reports the exact distribution only; N>0 adds multinomial tallies")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--tolerance", type=_finite_float, default=checks.VERDICT_TOL,
                       help="Born weight at or below which a pinned readout is flagged")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run a named consistency analysis")
    p_check.add_argument("name", choices=_CHECK_NAMES)
    p_check.add_argument("--c", dest="c",
                         help="comma-separated outcome probabilities; square roots are taken internally")
    p_check.add_argument("--ra", type=int, default=None,
                         help="record index the readout is pinned to (cpl only)")
    p_check.add_argument("--fact-holder", choices=it.FACT_HOLDERS, default=None,
                         help="which parties the interaction outcome is a fact for (ghz only)")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args, tuple(argv))
    except _Failure as failure:
        print(failure.message, file=sys.stderr)
        return failure.code


# ---------------------------------------------------------------------------
# commands

def _read_scenario(path: str) -> sc.Scenario:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _Failure(EXIT_IO, f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Failure(EXIT_USAGE, f"{path}: not valid UTF-8: {exc}") from exc
    try:
        return sc.parse(text)
    except sc.ScenarioError as exc:
        raise _Failure(EXIT_USAGE, f"{path}: {exc}") from exc


def _require_valid(path: str, scenario: sc.Scenario) -> None:
    """Refuse an invalid scenario with its diagnostics, one per line."""
    problems = sc.validate(scenario)
    if problems:
        raise _Failure(EXIT_USAGE, "\n".join(f"{path}: {d}" for d in problems))


def cmd_parse(args: argparse.Namespace, _invocation: tuple[str, ...]) -> int:
    scenario = _read_scenario(args.file)
    _require_valid(args.file, scenario)
    sys.stdout.write(sc.dumps(scenario))
    return EXIT_OK


def cmd_run(args: argparse.Namespace, invocation: tuple[str, ...]) -> int:
    scenario = _read_scenario(args.file)
    rules = it.RuleSet(args.rules)
    try:
        # the table first, so a failing table reports its own error whatever
        # the seed; the run reuses the plan the table compiled
        joint = it.exact_joint(scenario, rules)
        result = it.run(scenario, rules, args.seed)
    except (ValueError, it.TooManyBranchesError) as exc:
        # the engine validates before anything else, so an invalid scenario
        # fails here and is reported by its diagnostics
        _require_valid(args.file, scenario)
        raise _Failure(EXIT_USAGE, f"{args.file}: {exc}") from exc
    keys = it.outcome_keys(scenario)
    payload: dict[str, Any] = {
        "scenario": scenario.name,
        "rules": {"kind": rules.kind, "fact_holder": rules.fact_holder},
        "tolerance": args.tolerance,
        "outcomes": dict(sorted(result.results.items())),
        "ledger": [
            {"event": e.event_index, "agent": e.agent,
             "observable": e.observable, "outcome": e.outcome}
            for e in result.ledger.entries
        ],
        "pins": [
            {"event": p.event_index, "observer": p.observer, "record": p.record,
             "value": p.value, "born_weight": p.born_weight,
             "flagged": bool(p.anomalous or p.born_weight <= args.tolerance)}
            for p in result.pins
        ],
        "anomalies": list(result.anomalies),
        "perspectives": {
            name: _perspective_payload(ps)
            for name, ps in sorted(result.perspectives.items())
        },
        "exact": _table_payload(keys, joint, "probability"),
    }
    if args.samples:
        tallies = it.sample_tallies(joint, args.samples, seed=args.seed)
        frequencies = {k: v / args.samples for k, v in tallies.items()}
        payload["sampled"] = _table_payload(keys, frequencies, "frequency", counts=tallies)
        payload["sampled"]["n"] = args.samples
    _emit(args.format, "run", invocation, payload, seed=args.seed,
          text_writer=_run_text)
    return EXIT_OK


def cmd_check(args: argparse.Namespace, invocation: tuple[str, ...]) -> int:
    try:
        report, parameters = _dispatch_check(args)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, f"check {args.name}: {exc}") from exc
    payload = _report_payload(report, parameters)
    _emit(args.format, "check", invocation, payload, seed=None,
          text_writer=_check_text)
    return EXIT_OK if report.verdict == "consistent" else EXIT_FINDING


def _dispatch_check(args: argparse.Namespace):
    if args.name == "ghz":
        if args.c is not None or args.ra is not None:
            raise ValueError("the ghz analysis takes no state parameters")
        fact_holder = args.fact_holder or "agent"
        return checks.ghz_check(fact_holder), {"fact_holder": fact_holder}
    if args.fact_holder is not None:
        raise ValueError("--fact-holder applies to the ghz analysis only")
    probabilities = _parse_probabilities(args.c if args.c is not None else "0.3,0.7")
    amplitudes = [math.sqrt(p) for p in probabilities]
    parameters = {"probabilities": probabilities, "amplitudes": amplitudes}
    if args.name == "cpl":
        index = args.ra if args.ra is not None else 0
        parameters["record_index"] = index
        return checks.cpl_probability_check(amplitudes, index), parameters
    if args.ra is not None:
        raise ValueError("--ra applies to the cpl analysis only")
    return checks.epr_correlation_check(amplitudes), parameters


def _parse_probabilities(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse probability list {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError("probabilities must be finite")
    if any(v < 0 for v in values):
        raise ValueError("probabilities must be nonnegative")
    return values


# ---------------------------------------------------------------------------
# payload construction


def _sort_key(outcome: Sequence[Any]):
    return tuple(
        (0, float(v), "") if isinstance(v, (int, float)) else (1, 0.0, str(v))
        for v in outcome
    )


def _table_payload(keys: tuple[str, ...], table: dict, value_name: str,
                   counts: dict | None = None) -> dict[str, Any]:
    rows = []
    for outcome in sorted(table, key=_sort_key):
        row = {"outcome": list(outcome), value_name: float(table[outcome])}
        if counts is not None:
            row["count"] = int(counts[outcome])
        rows.append(row)
    return {"keys": list(keys), "rows": rows}


def _perspective_payload(ps: it.PerspectiveState) -> dict[str, Any]:
    # a run's perspectives are those of one sampled branch: always vectors
    state = ps.state
    return {
        "knowledge": dict(sorted(ps.knowledge)),
        "subsystems": [[name, dim] for name, dim in state.layout.subsystems],
        "kind": "vector",
        "amplitudes": [[z.real, z.imag] for z in state.amplitudes],
    }


def _report_payload(report: checks.ContradictionReport, parameters: dict) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "name": report.name,
        "rule_sets": list(report.rule_sets),
        "verdict": report.verdict,
        "tolerance": report.tolerance,
        "parameters": parameters,
        "findings": [
            {"claim": f.claim,
             "values": [[label, value] for label, value in f.values],
             "discrepancy": f.discrepancy}
            for f in report.findings
        ],
        "narrative": report.narrative,
        "assignment_search": None,
    }
    search = report.assignment_search
    if search is not None:
        payload["assignment_search"] = {
            "domain_size": search.domain_size,
            "satisfying": [[[var, sign] for var, sign in row] for row in search.satisfying],
            "formal_square": search.formal_square,
            "formal_product_value": search.formal_product_value,
        }
    return payload


# ---------------------------------------------------------------------------
# output

def _emit(fmt: str, command: str, invocation: tuple[str, ...],
          payload: dict[str, Any], seed: int | None, text_writer) -> None:
    if fmt == "json":
        envelope = {
            "tool": "wfcheck",
            "version": __version__,
            "command": command,
            "invocation": list(invocation),
            "seed": seed,
            "result": payload,
            "timing": None,  # reserved; kept null so fixed inputs give fixed bytes
        }
        sys.stdout.write(json.dumps(envelope, sort_keys=True, separators=(",", ":"),
                                    ensure_ascii=False) + "\n")
    else:
        lines = [f"tool wfcheck {__version__}", f"command {command}",
                 "invocation " + " ".join(invocation),
                 f"seed {'none' if seed is None else seed}"]
        lines.extend(text_writer(payload))
        sys.stdout.write("\n".join(lines) + "\n")


def _num(value: float) -> str:
    return format(float(value), ".12g")


def _fmt_label(value: Any) -> str:
    if isinstance(value, float):
        return _num(value)
    return str(value)


def _outcome_text(keys: Sequence[str], outcome: Sequence[Any]) -> str:
    return " ".join(f"{k}={_fmt_label(v)}" for k, v in zip(keys, outcome))


def _run_text(payload: dict[str, Any]) -> list[str]:
    lines = [f"scenario {payload['scenario']}",
             f"rules {payload['rules']['kind']} fact-holder {payload['rules']['fact_holder']}",
             f"tolerance {_num(payload['tolerance'])}"]
    for name, value in payload["outcomes"].items():
        lines.append(f"result {name} = {_fmt_label(value)}")
    for entry in payload["ledger"]:
        lines.append(f"ledger event {entry['event']} {entry['agent']} "
                     f"{entry['observable']} = {_fmt_label(entry['outcome'])}")
    for pin in payload["pins"]:
        lines.append(f"pin event {pin['event']} {pin['observer']} {pin['record']} = "
                     f"{_fmt_label(pin['value'])} born-weight {_num(pin['born_weight'])} "
                     f"flagged {'yes' if pin['flagged'] else 'no'}")
    for note in payload["anomalies"]:
        lines.append(f"anomaly {note}")
    keys = payload["exact"]["keys"]
    for row in payload["exact"]["rows"]:
        lines.append(f"joint {_outcome_text(keys, row['outcome'])} "
                     f"probability {_num(row['probability'])}")
    if "sampled" in payload:
        lines.append(f"samples {payload['sampled']['n']}")
        for row in payload["sampled"]["rows"]:
            lines.append(f"sampled {_outcome_text(keys, row['outcome'])} "
                         f"count {row['count']} frequency {_num(row['frequency'])}")
    for name, ps in payload["perspectives"].items():
        known = " ".join(f"{k}={_fmt_label(v)}" for k, v in ps["knowledge"].items())
        lines.append(f"perspective {name} {ps['kind']}" + (f" knows {known}" if known else ""))
        for i, (re, im) in enumerate(ps["amplitudes"]):
            if re != 0.0 or im != 0.0:
                lines.append(f"  amplitude {i} {_num(re)} {_num(im)}")
    return lines


def _check_text(payload: dict[str, Any]) -> list[str]:
    lines = [f"name {payload['name']}",
             "rule-sets " + " ".join(payload["rule_sets"]),
             f"verdict {payload['verdict']}",
             f"tolerance {_num(payload['tolerance'])}"]
    for key in sorted(payload["parameters"]):
        value = payload["parameters"][key]
        if isinstance(value, list):
            rendered = " ".join(_num(v) for v in value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            rendered = _fmt_label(value)
        else:
            rendered = str(value)
        lines.append(f"parameter {key} = {rendered}")
    for finding in payload["findings"]:
        lines.append(f"finding {finding['claim']}")
        for label, value in finding["values"]:
            lines.append(f"  value {label} = {_num(value)}")
        lines.append(f"  discrepancy {_num(finding['discrepancy'])}")
    search = payload["assignment_search"]
    if search is not None:
        lines.append(f"search domain {search['domain_size']} "
                     f"satisfying {len(search['satisfying'])}")
        for row in search["satisfying"]:
            lines.append("  assignment " + " ".join(f"{var}={sign}" for var, sign in row))
        if search["formal_square"] is not None:
            lines.append(f"search formal-square {search['formal_square']}")
            lines.append(f"search formal-product {search['formal_product_value']}")
    lines.append(f"narrative {payload['narrative']}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
