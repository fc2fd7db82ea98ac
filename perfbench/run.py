#!/usr/bin/env python3
"""wfcheck benchmark: one workload in one process, one closed-loop caller.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 36 --trace 0

The script lives in ``perfbench/`` of a checkout that has ``src/wfcheck``; the
package is imported from that source tree and nothing is installed.  Workloads: ``paper``,
``chain_rqm5`` and ``chain_collapse`` (see workloads.py and README.md).

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Metric names and units come from BENCHMARK.json.  Every output is checked
against a closed form (oracle.py); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details of the run (environment, sample counts, tail percentile, failures)
go to ``perfbench/work/<workload>-s<seed>/result-trace<k>.json``, and a
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

WORKLOADS = ("paper", "chain_rqm5", "chain_collapse")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 15  # fresh-process samples of each kind per run; odd, so the median is one of them
PROBE_BURST = 4  # probes run back to back, so fewer timed passes follow a child process
REWARM_S = 0.6  # untimed item time after probes; the next half second runs slower
CLI_ARGV = ["check", "ghz", "--format", "json"]
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10
SCOPE = ("Only the benchmark's own processes are measured: wall clocks around calls and "
         "child processes it starts, and its own peak RSS. No machine-wide tracing, no "
         "cache dropping, no kernel or cgroup settings touched.")

clock = time.perf_counter


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (checkout is not a git repository)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wfcheck").rglob("*")):
        if path.suffix in (".py", ".wfs"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _environment(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
        "scope": SCOPE,
    }


# ---------------------------------------------------------------------------
# fresh-process probes


def _probe_setup(workload: str, seed: int, directory: Path) -> float:
    """Wall seconds from starting a fresh interpreter to its first timed item."""
    argv = [sys.executable, str(HERE / "probe.py"), "setup", workload, str(seed), str(directory)]
    start = clock()
    with subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = clock() - start
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
    return elapsed


def _probe_import() -> float:
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), "import"], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip())


def _probe_cli(oracle, tally) -> float:
    """Wall seconds of ``wfcheck check ghz --format json`` as a child process."""
    start = clock()
    done = subprocess.run([sys.executable, "-m", "wfcheck.cli", *CLI_ARGV], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = clock() - start
    out = oracle.CliOutput(done.returncode, done.stdout, done.stderr)
    tally.record("cli process check ghz", oracle.check_cli_ghz(out, CLI_ARGV))
    return elapsed


# ---------------------------------------------------------------------------
# timing


def _pass(items, oracle, tally) -> list[float]:
    return [oracle.execute(item, tally, clock) for item in items]


def _rewarm(items, oracle, tally) -> None:
    """Run items untimed, in pass order and round again, until REWARM_S have gone by."""
    start = clock()
    for item in itertools.cycle(items):
        oracle.execute(item, tally, clock)
        if clock() - start >= REWARM_S:
            return


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _timed(seconds: float, run_pass, probes, rewarm) -> list[int]:
    """Call ``run_pass(index)`` for whole passes until ``seconds`` have gone by,
    and at least twice.

    The fresh-process ``probes`` run between passes, spread evenly over the
    window: host load drifts over seconds, so probes bunched at one moment
    would sample only that moment.  Work right after a child process runs
    slower, so after probes ``rewarm()`` runs untimed before the next pass.
    Returns the indices of the passes that followed probes."""
    start = clock()
    index = done = 0
    bursts = math.ceil(len(probes) / PROBE_BURST)
    after_probes = []
    while index < 2 or clock() - start < seconds:
        due = min(len(probes), (int(bursts * (clock() - start) / seconds) + 1) * PROBE_BURST)
        if done < due:
            while done < due:
                probes[done]()
                done += 1
            rewarm()
            after_probes.append(index)
        run_pass(index)
        index += 1
    for probe in probes[done:]:
        probe()
    return after_probes


def _end_to_end(args, items, oracle, tally, report) -> dict[str, float]:
    probe_dir = WORK / f"{args.workload}-s{args.seed}" / "probe"
    setup, cli_process, per_item, pass_seconds = [], [], [], []

    def run_pass(_index: int) -> None:
        times = _pass(items, oracle, tally)
        per_item.extend(times)
        pass_seconds.append(sum(times))

    probes = [lambda: setup.append(_probe_setup(args.workload, args.seed, probe_dir)),
              lambda: cli_process.append(_probe_cli(oracle, tally))] * PROBES
    _pass(items, oracle, tally)  # warm-up: lazy imports, allocator pools, caches
    after_probes = _timed(args.seconds, run_pass, probes, lambda: _rewarm(items, oracle, tally))
    shutil.rmtree(probe_dir, ignore_errors=True)

    tail_pct, tail_s = _tail(per_item)
    by_item: dict[str, list[float]] = {}
    for item, seconds in zip(items * len(pass_seconds), per_item):
        by_item.setdefault(item.name, []).append(seconds * 1e3)
    report.update(samples=len(per_item), passes=len(pass_seconds), items_per_pass=len(items),
                  tail_percentile=tail_pct, setup_s_samples=setup, cli_process_s_samples=cli_process,
                  pass_seconds=pass_seconds, passes_after_probes=after_probes, item_ms=by_item)
    return {
        "setup_s": statistics.median(setup),
        "solves_per_s": len(per_item) / sum(per_item),
        "solve_ms_p50": statistics.median(per_item) * 1e3,
        "solve_ms_tail": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # mean, not median: slow spells of the host split the samples into two
        # groups, and a median flips between them from run to run
        "cli_process_s": statistics.mean(cli_process),
    }


def _per_layer(args, items, modules, workloads, oracle, tally, report) -> dict[str, float]:
    """Untraced and traced passes alternate; layer numbers are per traced pass."""
    import tracing

    out_dir = WORK / f"{args.workload}-s{args.seed}"
    tracer = tracing.Tracer(modules)

    def observe(out) -> None:
        if isinstance(out, oracle.CliOutput):
            tracer.counts["cli.output_bytes"] += len(out.stdout.encode())

    def traced(work):
        """Run ``work`` traced; return its result and the summary of its spans."""
        tracer.install()
        before, first = dict(tracer.counts), len(tracer.spans)
        try:
            result = work()
        finally:
            tracer.uninstall()
        summary = tracer.summarize(first, len(tracer.spans))
        summary.update({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
        return result, summary

    # set-up traced once: what the scenario layer costs before the first item
    tracer.item = "setup"
    _, setup_summary = traced(lambda: workloads.setup(
        args.workload, args.seed, out_dir / "traced-inputs"))

    plain, traced_seconds, summaries, imports = [], [], [], []

    def traced_pass(index: int) -> float:
        total = 0.0
        for position, item in enumerate(items):
            tracer.item = f"{index}.{position}"
            total += oracle.execute(item, tally, clock, observe)
        return total

    def run_pass(index: int) -> None:
        if index % 2 == 0:
            plain.append(sum(_pass(items, oracle, tally)))
            return
        seconds, summary = traced(lambda: traced_pass(index))
        traced_seconds.append(seconds)
        summaries.append(summary)

    _pass(items, oracle, tally)  # warm-up
    _timed(args.seconds, run_pass, [lambda: imports.append(_probe_import())] * PROBES,
           lambda: _rewarm(items, oracle, tally))
    tracer.write(out_dir / "spans.tsv")

    exact = [k for k in summaries[0] if not k.endswith("ms")]
    if any(s.get(k) != summaries[0].get(k) for s in summaries for k in exact):
        tally.record("trace counts", ["a call or byte count differs between traced passes"])

    def median(name: str) -> float:
        return statistics.median(s.get(name, 0.0) for s in summaries)

    metrics: dict[str, float] = {}
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        for name in names:
            metrics[f"{layer}.{name}.calls"] = summaries[0].get(f"{layer}.{name}.calls", 0)
            metrics[f"{layer}.{name}.ms"] = median(f"{layer}.{name}.ms")
        metrics[f"{layer}.self_ms"] = median(f"{layer}.self_ms")
    for name in ("scenario.parse.calls", "scenario.parse.ms", "scenario.validate.ms", "scenario.dumps.ms"):
        metrics[name] += setup_summary.get(name, 0)
    for name in ("interpret.points", "qcore.state_bytes", "cli.output_bytes"):
        metrics[name] = summaries[0].get(name, 0)
    points = metrics["interpret.points"]
    for name in ("qcore.project", "qcore.born_distribution"):
        metrics[f"{name}.per_point"] = metrics[f"{name}.calls"] / points if points else 0.0
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.pass_ms"] = statistics.median(traced_seconds) * 1e3
    metrics["trace.overhead_ratio"] = statistics.median(plain) / statistics.median(traced_seconds)
    report.update(untraced_passes=len(plain), traced_passes=len(traced_seconds), import_s_samples=imports,
                  spans=len(tracer.spans), setup_trace=setup_summary)
    return metrics


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wfcheck" / "__init__.py").is_file():
        return _fail(f"no wfcheck source tree at {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")  # one caller, one thread: steadier than a BLAS pool
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import numpy

    import wfcheck
    from wfcheck import checks, cli, interpret, qcore, scenario

    if Path(wfcheck.__file__).resolve().parent != SRC / "wfcheck":
        return _fail(f"imported wfcheck from {wfcheck.__file__}, not from {SRC}")

    import oracle
    import selfcheck
    import workloads

    misjudged = selfcheck.run()
    if misjudged:
        return _fail("output checker self-test failed: " + "; ".join(misjudged))

    out_dir = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        items = workloads.setup(args.workload, args.seed, out_dir / "inputs")
    except workloads.SetupError as exc:
        return _fail(f"generated input rejected: {exc}", 1)

    tally = oracle.Tally()
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": _environment(numpy.__version__)}
    if args.trace:
        modules = {"scenario": scenario, "interpret": interpret, "qcore": qcore,
                   "checks": checks, "cli": cli}
        metrics = _per_layer(args, items, modules, workloads, oracle, tally, report)
    else:
        metrics = _end_to_end(args, items, oracle, tally, report)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    report.update(result=result, fail_ratio=tally.failed / tally.attempted, failures=tally.examples)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")

    print("env " + json.dumps(report["environment"], sort_keys=True))
    for line in tally.examples:
        print(f"failure {line}")
    print(f"fail_ratio {tally.failed}/{tally.attempted} = {report['fail_ratio']:.6g} ratio")
    if not args.trace:
        print(f"solve_ms_tail is p{report['tail_percentile']:.4g} of {report['samples']} samples "
              f"({report['passes']} passes of {report['items_per_pass']} items)")
    for m in wanted:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
