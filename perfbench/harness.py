"""Shared pieces of the benchmark: the child launcher client, the span
recorder, latency statistics and the machine/environment record.

Everything here runs in the harness process. Program code is reached only
through ``Tracer.call`` (in-process) or ``Launcher.run`` (a child process).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Thread count pinned for OpenBLAS (and the other BLAS/OpenMP pools) in the
#: harness and in every child, so both commits run with the same setting.
BLAS_THREADS = "1"
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}

#: Times each set-up step is repeated; the median is reported.
SETUP_REPEATS = 9


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Launcher:
    """Client of ``launcher.py``; spawns one child at a time and waits for it."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = child_env(root)
        self.count = 0
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self.env,
            text=True,
        )

    def run(self, argv: list) -> dict:
        """Run ``argv``; returns rc, wall_s, maxrss_kb and the stdout/stderr text."""
        self.count += 1
        out = self.workdir / f"child_{self.count}.out"
        err = self.workdir / f"child_{self.count}.err"
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": str(out), "stderr": str(err)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        reply["stdout"] = out.read_text(encoding="utf-8")
        reply["stderr"] = err.read_text(encoding="utf-8")
        out.unlink()
        err.unlink()
        return reply

    def python(self, *args: str) -> dict:
        return self.run([sys.executable, *args])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


#: Host-speed reference for set-up: a fresh interpreter importing only these.
IMPORT_REF = "json, numpy"
IMPORT_REF_S = 0.095


def _import_time(launcher: Launcher, module: str) -> float:
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "sys.stdout.write(repr(time.perf_counter() - t))\n"
    )
    reply = launcher.python("-c", code)
    if reply["rc"] != 0:
        raise RuntimeError(f"importing {module} failed: {reply['stderr'].strip()}")
    return float(reply["stdout"])


def import_seconds(launcher: Launcher, module: str) -> tuple:
    """Median time to import ``module`` in a fresh interpreter (interpreter
    start excluded): raw, and at the reference host speed, with the import of
    ``IMPORT_REF`` alone timed before each repeat as the reference."""
    host = HostSpeed(lambda: _import_time(launcher, IMPORT_REF), IMPORT_REF_S)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        host.tick()
        raw.append(_import_time(launcher, module))
        scaled.append(host.scale(raw[-1]))
    return statistics.median(raw), statistics.median(scaled)


class HostSpeed:
    """A fixed reference task, made of benchmark code only, run next to the ops.

    On a shared host the speed of the whole machine drifts by tens of percent
    within seconds to minutes, and every op slows with it. The reference task
    slows with it too, but does not depend on the program. Each op (or short
    block of ops) is therefore timed right after a run of the reference and
    reported at the reference speed: ``raw * ref_s / reference time``, where
    ``ref_s`` is the reference task's typical time. Raw timings are printed
    alongside.
    """

    def __init__(self, task, ref_s: float, name: str = "host_speed_factor"):
        self.task = task  # returns its own duration in seconds
        self.ref_s = ref_s
        self.name = name
        self.samples: list = []

    def tick(self) -> None:
        self.samples.append(self.task())

    def scale(self, seconds: float) -> float:
        """``seconds``, timed since the last tick, at the reference speed."""
        return seconds * self.ref_s / self.samples[-1]

    def report(self) -> tuple:
        factor = self.ref_s / statistics.median(self.samples)
        return (self.name, factor, "", f"reference {self.ref_s * 1e3:g} ms / median of {len(self.samples)} reference runs")


#: Typical time of ``python_reference`` on the reference machine.
PYTHON_REF_S = 0.0018


def python_reference() -> float:
    """Reference task for Python-bound ops: interpreter loops and tiny ufunc calls."""
    import numpy as np  # not at module level: run.py pins the BLAS threads first

    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 8)
    acc = 0.0
    for k in range(200):
        b = a * (k % 7)
        acc += float(np.dot(b, a)) + float(np.abs(b).max()) + sum(float(x) for x in b)
    return time.perf_counter() - t0


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans around the harness's calls into program code.

    A span is (name, start_ns, end_ns, parent index, op id, input bytes).
    With ``on`` false, ``call`` is a plain call and nothing is recorded.
    Spans stay in memory until ``dump``.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self.counts: dict = {}

    def call(self, name: str, fn, *args, nbytes: int = 0, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op, nbytes)

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def totals(self) -> dict:
        """name -> [calls, total_ns, total_bytes]."""
        out: dict = {}
        for name, t0, t1, _, _, nbytes in self.spans:
            agg = out.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += nbytes
        return out

    def span_cost_ns(self) -> float:
        """Measured cost of recording one span around an empty call."""
        probe = Tracer(True)
        reps = 20000
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            probe.call("x", int)
        return (time.perf_counter_ns() - t0) / reps

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, t0, t1, parent, op, nbytes in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1, "parent": parent, "op": op, "bytes": nbytes}) + "\n")


def tail_level(n_min: int, beyond: int = 10) -> float:
    """Highest whole-percent level with at least ``beyond`` of ``n_min`` samples above it."""
    return math.floor(100.0 * (n_min - beyond) / n_min) / 100.0


def percentile(values: list, level: float) -> float:
    """Nearest-rank percentile of ``values`` at ``level`` in (0, 1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level * len(ordered)))
    return ordered[rank - 1]


def latency_summary(values: list, level: float) -> dict:
    return {
        "p50": statistics.median(values),
        "tail": percentile(values, level),
        "level": level,
        "n": len(values),
    }


def close_rel(a: float, b: float, scale: float, rel: float = 1e-9) -> bool:
    """|a - b| <= rel * max(1, |b|, scale)."""
    return abs(a - b) <= rel * max(1.0, abs(b), scale)


def op_failed(label: str, exc: BaseException) -> None:
    """Report an op that raised; it is counted as failed, and the run goes on."""
    print(f"op failed: {label}: {exc!r}", file=sys.stderr)


def jensen_ok(report) -> bool:
    """The reverse-Jensen claims: 0 <= gap <= pairing gap, and the chain holds."""
    tol = 1e-10 * max(1.0, abs(report.gap), abs(report.pairing_gap))
    return -tol <= report.gap <= report.pairing_gap + tol and report.chain.holds()


def environment(launcher: Launcher, array_bytes: int) -> dict:
    import numpy as np

    llc = launcher.run(["getconf", "LEVEL3_CACHE_SIZE"])
    llc_text = llc["stdout"].strip()
    return {
        "nproc": os.cpu_count(),
        "llc_bytes": int(llc_text) if llc["rc"] == 0 and llc_text.isdigit() else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "array_bytes": array_bytes,
        "load": "closed loop, one client, one op in flight, no worker threads",
    }


def print_table(title: str, rows: list) -> None:
    """Print ``(name, value, unit, note)`` rows for a reader; not parsed."""
    print(f"== {title}")
    for name, value, unit, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {text:>14} {unit:<8} {note}")
