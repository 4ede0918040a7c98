"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lake-cold --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` spends half the time untraced and half with span wrappers
installed and reports the per-layer metrics.  Diagnostics (run metadata,
every metric by name and unit, the traced breakdown) go to standard output
before the last line, which is the JSON result.  A failed correctness check
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lake-cold", "service-columns")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import metrics
    from perfbench.system import metadata

    started = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=_scratch_root()))
    try:
        if args.workload == "service-columns":
            from perfbench.service import ServiceWorkload

            workload = ServiceWorkload(args.seed, workdir, ROOT)
        else:
            from perfbench.lake import LakeWorkload

            workload = LakeWorkload(args.seed, workdir)
        if args.trace:
            values, info = workload.traced(args.seconds)
            units = metrics.PER_LAYER
        else:
            values, info = workload.end_to_end(args.seconds)
            units = metrics.END_TO_END
        failures = list(workload.failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    attempted = int(info["ops_attempted"])
    failed = int(info["ops_failed"])
    meta = {
        **metadata(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "model_rtt_ms": workload.rtt_s * 1000,
        "run_wall_s": time.perf_counter() - started,
        **info,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.6f} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def _scratch_root() -> Path:
    """Per-run files live in the checkout, under an ignored directory."""
    path = ROOT / ".perfbench_tmp"
    path.mkdir(exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
