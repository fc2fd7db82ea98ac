"""Fresh-process probes that run.py starts and times.

    python3 perfbench/probe.py setup <workload> <seed> <directory>
        import wfcheck, generate, parse and validate the workload's inputs,
        then print "ready"; the parent's clock around this is set-up time
    python3 perfbench/probe.py import
        print how many seconds ``import wfcheck`` took in this process

The parent puts the checkout's ``src`` first on PYTHONPATH.
"""

import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] == ["import"]:
        start = time.perf_counter()
        import wfcheck  # noqa: F401
        print(repr(time.perf_counter() - start), flush=True)
        return 0
    if argv[:1] == ["setup"] and len(argv) == 4:
        from pathlib import Path

        import workloads

        workloads.setup(argv[1], int(argv[2]), Path(argv[3]))
        print("ready", flush=True)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
