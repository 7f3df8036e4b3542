"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-mixed --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` runs the workload as users run it and prints the
end-to-end metrics; ``--trace 1`` runs it once untraced and once under
the per-layer wrappers and prints the per-layer metrics and the layer
table.  Either way the outputs are checked, and the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

The exit status is 0 when every check passed, 1 when one failed, and 2
when the program under test cannot be found.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time
import traceback
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(BENCHMARK, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under test at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from common import Bench
    from workloads import registry

    workloads = registry()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(workloads)})", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    os.environ["TMPDIR"] = work
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work, "default-cache")
    bench = Bench(root=ROOT, work=work, seed=args.seed,
                  seconds=args.seconds)
    declared = _declared(bool(args.trace))
    started = time.perf_counter()
    values: Dict[str, float] = {}
    workload = None
    try:
        workload = workloads[args.workload](bench)
        values = workload.trace() if args.trace else workload.e2e()
    except Exception:  # report the failure in the result line
        error = traceback.format_exc().strip().splitlines()[-1]
        bench.operation(False, f"workload raised {error}")
        traceback.print_exc(file=sys.stderr)
    finally:
        from repro.experiments.driver import shutdown_shared_pool

        if workload is not None:
            workload.close()
        shutdown_shared_pool()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may share it
            os.rmdir(os.path.dirname(work))
    missing = sorted(set(declared) - set(values))
    bench.check(not missing, f"metrics not measured: {missing}")
    correct = not bench.problems and bench.attempted > 0
    print(f"== {args.workload} seed={args.seed} trace={args.trace} "
          f"({time.perf_counter() - started:.1f}s) ==")
    for line in workload.lines if workload is not None else ():
        print(line)
    if not args.trace:
        from common import calibration_us

        print(f"calib.ml_seed_epoch_us={calibration_us():.2f} "
              "(host drift only; never gated)")
    print(f"ops_failed_frac={bench.failed / max(bench.attempted, 1):.4f} "
          f"({bench.failed}/{bench.attempted})")
    for name in sorted(set(values) - set(declared)):
        print(f"{name}={values[name]:.6g} (not in BENCHMARK.json)")
    for problem in bench.problems:
        print(f"FAILED CHECK: {problem}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
