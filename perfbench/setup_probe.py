"""Set-up probe, timed from outside by run.py.

    python3 perfbench/setup_probe.py <workload> <seed>

A fresh interpreter imports ``tractorlab.cli`` from the checkout's ``src``
and builds the first round of the workload's inputs: the work every CLI
invocation pays before it computes anything.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(HERE.parent / "src"))
    import tractorlab.cli  # noqa: F401
    from workloads import build_round
    build_round(workload, seed, 0, HERE / ".out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
