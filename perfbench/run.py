"""End-to-end benchmark of the ICC reproduction, with a per-layer ledger.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-n13-real --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer spans on every other timed height and prints the per-layer metrics
instead (and writes the spans to ``.perfbench/spans-<workload>.csv``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a check fails: diverging honest chains, a simulated chain
that differs between two runs of one seed, or request counts that do not
balance.  See ``METRICS.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ImportError(f"no program sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise ImportError(f"repro was imported from {repro.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(one of {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(os.path.join(workdir, "setup-cache"), ignore_errors=True)

    if outcome.recorder is not None:
        outcome.recorder.write_csv(os.path.join(workdir, f"spans-{args.workload}.csv"))
    units = PER_LAYER if args.trace else END_TO_END
    values = outcome.per_layer if args.trace else outcome.end_to_end
    errors = list(outcome.errors)
    if values and set(values) != set(units):
        errors.append(f"metrics missing: {sorted(set(units) - set(values))}")
    for note in outcome.notes:
        print(note)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    correct = not errors and bool(values)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
