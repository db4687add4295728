"""Alternating before/after runs of the benchmark, recorded to one JSON file.

Usage, from the root of a git checkout::

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_7.json [--workload NAME ...]

PARENT and CHANGE are git revisions of this repository. Each is exported with
``git archive`` into a scratch directory, and ``perfbench/run.py`` runs in
each export in turn, for every workload of ``BENCHMARK.json`` (or each
``--workload`` given, in order) and at its
``run_seconds``: pair i runs seed ``FIRST_SEED + i`` on both sides, the parent
first in even pairs and the change first in odd ones, so neither side always
runs on a warmer or a cooler host. ``PAIRS`` = 10 is the fewest pairs on which
a 9-in-10 win can be read.

The output holds both commit ids and, per workload, every run's JSON result
line and, per end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the change/parent ratio of the medians, the pairs the change won,
and ``gain_shown``: the change won at least 9 pairs in 10 and its median beats
the parent's by more than the parent's quartile spread.

``bytecode`` records, per side, whether its children compile the package from
source: the ``PYTHONDONTWRITEBYTECODE`` value they inherit, and whether the
export holds any ``__pycache__`` before the first run and after the last. A
``git archive`` export ships none, so with that variable set every child
compiles every module it imports, and its op times include that.

``options`` records the workloads run. Last, ``traced`` holds ``TRACED_RUNS``
``--trace 1`` runs per side of the first ``--workload`` named, or of
``TRACED_WORKLOAD`` when none is (seed ``FIRST_SEED``, alternating, the parent
first): every run, each per-layer metric's median over a side's runs and the
change/parent ratio of the medians, which show in which layer a change of the
end-to-end metrics sits. One traced run is too noisy to read a layer from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 101
TRACED_WORKLOAD = "large_n"
TRACED_RUNS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def has_bytecode(checkout: Path) -> bool:
    return any(checkout.rglob("__pycache__"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list, metrics: list) -> dict:
    """Per metric: medians, quartiles, ratio and pair wins of the change against the parent."""
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        sides = {side: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == side]
                 for side in ("parent", "change")}
        stats = {}
        for side, values in sides.items():
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            stats[side] = {"median": med, "q1": q1, "q3": q3}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
        gain = stats["change"]["median"] - stats["parent"]["median"]
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **stats,
            "ratio": stats["change"]["median"] / stats["parent"]["median"],
            "wins": wins,
            "gain_shown": wins * 10 >= 9 * PAIRS and (gain if higher else -gain) > spread,
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=names, metavar="NAME",
                        help=f"a workload to pair, repeatable; default every one of BENCHMARK.json ({', '.join(names)})")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    workloads = list(dict.fromkeys(args.workload or names))
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    doc = {"commits": commits, "seconds": seconds, "options": {"workloads": workloads}, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        checkouts = {side: export(commit, Path(scratch) / side) for side, commit in commits.items()}
        doc["bytecode"] = {
            side: {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"), "pycache_at_start": has_bytecode(path)}
            for side, path in checkouts.items()
        }
        for workload in workloads:
            runs = []
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = run_once(checkouts[side], workload, seed, seconds)
                    runs.append({"pair": i, "side": side, "seed": seed, "result": result})
                    line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                    print(f"{workload} pair {i} {side:<6} correct={result['correct']} {json.dumps(line)}", flush=True)
            doc["workloads"][workload] = {
                "correct": all(r["result"]["correct"] for r in runs),
                "runs": runs,
                "summary": summary(runs, spec["end_to_end"]),
            }
            for name, m in doc["workloads"][workload]["summary"].items():
                print(f"{workload} {name:<14} parent {m['parent']['median']:.4g} change {m['change']['median']:.4g} "
                      f"ratio {m['ratio']:.3f} wins {m['wins']}/{PAIRS} gain_shown={m['gain_shown']}", flush=True)
        for side, path in checkouts.items():
            doc["bytecode"][side]["pycache_at_end"] = has_bytecode(path)
            print(f"bytecode {side:<6} {json.dumps(doc['bytecode'][side])}", flush=True)
        doc["traced"] = traced_runs(checkouts, workloads[0] if args.workload else TRACED_WORKLOAD, seconds)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def traced_runs(checkouts: dict, workload: str, seconds: float) -> dict:
    """``TRACED_RUNS`` traced runs of ``workload`` per side, alternating, and their per-layer medians."""
    traced = {"parent": [], "change": []}
    for i in range(TRACED_RUNS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            traced[side].append(run_once(checkouts[side], workload, FIRST_SEED, seconds, trace=1))
    values = {side: {k: statistics.median(r["metrics"][k]["value"] for r in runs) for k in runs[0]["metrics"]}
              for side, runs in traced.items()}
    ratios = {k: values["change"][k] / v if v else None for k, v in values["parent"].items()}
    for name, ratio in ratios.items():
        print(f"traced {workload} {name:<44} parent {values['parent'][name]:.4g} "
              f"change {values['change'][name]:.4g} ratio {ratio if ratio is None else round(ratio, 3)}", flush=True)
    return {"workload": workload, "seed": FIRST_SEED, "runs": traced, "medians": values, "ratios": ratios}


if __name__ == "__main__":
    sys.exit(main())
