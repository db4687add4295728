"""Benchmark of grussbounds: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small_n|large_n|cli --seed N --seconds S --trace 0|1

Inputs are generated from ``--seed``; the program receives only them. With
``--trace 0`` the run reports the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it records spans around its calls into
the program, runs the layer probe, and reports the per-layer metrics. Human
readable tables go first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md here.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"small_n": "small_n", "large_n": "large_n", "cli": "cli_workload"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "grussbounds"
    if not (package / "__init__.py").is_file():
        print(f"error: no program sources at {package}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import harness

    os.environ.update(harness.BLAS_ENV)  # before numpy is imported
    build = ROOT / ".bench_build" / "perfbench"
    workdir = build / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    launcher = harness.Launcher(ROOT, workdir)  # started while this process is still small
    try:
        import grussbounds

        if Path(grussbounds.__file__).resolve().parent != package.resolve():
            print(f"error: imported grussbounds from {grussbounds.__file__}, not {package}", file=sys.stderr)
            return 2
        tracer = harness.Tracer(bool(args.trace))
        ctx = SimpleNamespace(
            root=ROOT, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            tracer=tracer, launcher=launcher, workdir=workdir,
        )
        result = importlib.import_module(WORKLOADS[args.workload]).run(ctx)
        env = harness.environment(launcher, result["array_bytes"])
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        import probe

        values = probe.layer_metrics(tracer, result["extra"], result["loop_spans"], result["loop_seconds"])
        tracer.dump(build / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = result["metrics"]
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {entry['name']} is not finite: {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    checks = result.get("self_checks", {})
    attempted, failed = result["attempted"], result["failed"]
    print(f"== environment\n  {json.dumps(env)}")
    harness.print_table(
        f"{args.workload} (seed {args.seed}, trace {args.trace})",
        [("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted} ops")]
        + result["report"]
        + [(name, ok, "", "self-check") for name, ok in checks.items()]
        + [(name, m["value"], m["unit"], "") for name, m in metrics.items()],
    )
    line = {"correct": failed == 0 and all(checks.values()), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
