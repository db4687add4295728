"""Workload ``large_n``: the array-pass regime, through the library.

Each op is one tag done the way a user does it from raw arrays: build the
weights and the ``WeightedSequence``, ``fit_enclosure`` what the tag needs,
then evaluate the chain. Full passes over the arrays set the time; per-call
overhead is negligible. The inputs (about 150 MB in all) fit in the 300 MiB
LLC the VM reports, so this is an in-cache pass regime, not a DRAM-bandwidth
roofline.

Main ops: six enclosure/disc tags on three array shapes. Side ops:
``reverse_jensen`` with four oracles at 5e4 points, and the
forward-difference families 1.6/1.8 at n = 3000.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import grussbounds as gb

from harness import (
    PYTHON_REF_S, HostSpeed, close_rel, import_seconds, jensen_ok, latency_summary, op_failed, python_reference,
    self_rss_mb, tail_level,
)
from probe import Case, counting_oracle, fit_disc, random_case, run_probe

#: (n, dim, complex) of the main-op inputs.
SHAPES = ((1_000_000, 3, False), (250_000, 3, True), (100_000, 32, False))
TAGS = ("2.3", "2.7", "2.8", "2.9", "2.11", "R2.7")
JENSEN_N = 50_000
ORACLES = ("squared_norm", "diag_quadratic", "log_sum_exp", "norm_fourth")
# 1.6/1.8 run only here, at n = 3000: pair_index_coefficient builds two n x n
# temporaries, which at the CLI files' sizes would need gigabytes.
FD_N = 3000
DOC_PREFIX = 10_000

MIN_CYCLES = 2
MAIN_LEVEL = tail_level(MIN_CYCLES * len(SHAPES) * len(TAGS))
CHUNK = 1 << 16

#: Host-speed reference for the array-pass ops: benchmark-only passes over
#: the 1e6 x 3 input, run before each main op and each 1.6/1.8 op; its typical
#: time on the reference machine. ``reverse_jensen`` is mostly Python-level
#: calls (the oracle is called per point), so ``python_reference`` runs before
#: each of those instead.
HOST_REF_S = 0.065


def host_reference(arr: np.ndarray) -> float:
    t0 = time.perf_counter()
    centered = arr - arr.mean(axis=0)
    (centered * centered).sum(axis=1).max()
    return time.perf_counter() - t0

L, CL = np.longdouble, np.clongdouble


def make_case(rng, n: int, dim: int, is_complex: bool) -> Case:
    return random_case(rng, gb.Space(dim, "complex" if is_complex else "real"), n)


# -- independent long-double references -----------------------------------


def _chunks(n: int):
    for lo in range(0, n, CHUNK):
        yield slice(lo, min(n, lo + CHUNK))


def _wsum(w, arr, dtype):
    """sum_i w_i arr_i in extended precision, chunked to bound memory."""
    total = 0
    for s in _chunks(len(w)):
        a = arr[s].astype(dtype)
        wi = w[s].astype(L)
        total = total + ((wi[:, None] * a).sum(axis=0) if a.ndim == 2 else (wi * a).sum())
    return total


def references(case: Case) -> dict:
    """Functionals and link ingredients of one case, by centered long-double sums."""
    dt = CL if case.space.is_complex else L
    xbar, ybar, abar = (_wsum(case.w, a, dt) for a in (case.xs, case.ys, case.alphas))
    acc = dict(cheb=0, var_x=0, var_y=0, mad_x=0, mad_y=0, gruss=0, amad=0, avar=0, sq=0,
               s_cheb=0, s_var=0, s_gruss=0, s_sq=0)
    for s in _chunks(case.n):
        w = case.w[s].astype(L)
        x = case.xs[s].astype(dt) - xbar
        y = case.ys[s].astype(dt) - ybar
        a = case.alphas[s].astype(dt) - abar
        nx = np.sqrt((np.abs(x) ** 2).sum(axis=1))
        ny = np.sqrt((np.abs(y) ** 2).sum(axis=1))
        raw_x = np.sqrt((np.abs(case.xs[s].astype(dt)) ** 2).sum(axis=1))
        raw_y = np.sqrt((np.abs(case.ys[s].astype(dt)) ** 2).sum(axis=1))
        raw_a = np.abs(case.alphas[s].astype(dt))
        acc["cheb"] += (w * (x * np.conj(y)).sum(axis=1)).sum()
        acc["var_x"] += (w * nx * nx).sum()
        acc["var_y"] += (w * ny * ny).sum()
        acc["mad_x"] += (w * nx).sum()
        acc["mad_y"] += (w * ny).sum()
        acc["gruss"] += ((w * a)[:, None] * x).sum(axis=0)
        acc["amad"] += (w * np.abs(a)).sum()
        acc["avar"] += (w * np.abs(a) ** 2).sum()
        acc["sq"] += (w * a * a).sum()
        acc["s_cheb"] += (w * raw_x * raw_y).sum()
        acc["s_var"] += (w * raw_x * raw_x).sum()
        acc["s_gruss"] += (w * raw_a * raw_x).sum()
        acc["s_sq"] += (w * raw_a * raw_a).sum()
    return {k: (complex(v) if np.iscomplexobj(v) else float(v)) if np.ndim(v) == 0 else np.asarray(v, dtype=np.complex128) for k, v in acc.items()}


def encloses(center, radius: float, pts: np.ndarray) -> bool:
    """Every row within radius of center, in extended precision."""
    dt = CL if np.iscomplexobj(pts) else L
    for s in _chunks(pts.shape[0]):
        d = np.sqrt((np.abs(pts[s].astype(dt) - np.asarray(center).astype(dt)) ** 2).sum(axis=1))
        if float(d.max()) > radius * (1.0 + 1e-9):
            return False
    return True


def check_main(tag: str, case: Case, out, ref: dict) -> bool:
    chain, ex, ey, disc = out
    if not chain.holds():
        return False
    f = chain.functional_value
    links = [l.value for l in chain.links]
    if ex is not None and not encloses(ex.center, ex.radius, case.xs):
        return False
    if ey is not None and not encloses(ey.center, ey.radius, case.ys):
        return False
    if disc is not None:
        mid, half = (disc[0] + disc[1]) / 2.0, abs(disc[1] - disc[0]) / 2.0
        if not encloses([mid], half, case.alphas.astype(np.complex128)[:, None]):
            return False
    if tag in ("2.3", "2.7"):
        d = ex.diameter
        return (close_rel(f, abs(ref["cheb"]), ref["s_cheb"])
                and close_rel(links[0], 0.5 * d * ref["mad_y"], d * ref["s_cheb"])
                and close_rel(links[1], 0.5 * d * math.sqrt(ref["var_y"]), d * ref["s_cheb"]))
    if tag == "2.8":
        d = ex.diameter
        return close_rel(f, ref["var_x"], ref["s_var"]) and close_rel(links[0], 0.5 * d * ref["mad_x"], d * ref["s_var"])
    if tag in ("2.9", "2.11"):
        d = ex.diameter
        g = float(np.sqrt((np.abs(ref["gruss"]) ** 2).sum()))
        return (close_rel(f, g, ref["s_gruss"])
                and close_rel(links[0], 0.5 * d * ref["amad"], d * ref["s_gruss"])
                and close_rel(links[1], 0.5 * d * math.sqrt(ref["avar"]), d * ref["s_gruss"]))
    width = abs(disc[1] - disc[0])
    return (close_rel(f, abs(ref["sq"]), ref["s_sq"])
            and close_rel(links[0], 0.5 * width * ref["amad"], width * ref["s_sq"]))


def jensen_reference(name: str, case: Case) -> tuple:
    """Jensen gap and its scale for the bundled oracles (standard metric)."""
    z = case.zs.astype(L)
    p = case.w.astype(L)
    diag = 1.0 + np.arange(case.space.dim, dtype=L) / case.space.dim

    def F(v):
        sq = (v * v).sum(axis=-1)
        if name == "squared_norm":
            return sq
        if name == "diag_quadratic":
            return (diag * v * v).sum(axis=-1)
        if name == "norm_fourth":
            return sq * sq
        m = v.max(axis=-1, keepdims=True)
        return m[..., 0] + np.log(np.exp(v - m).sum(axis=-1))

    fz = F(z)
    return float((p * fz).sum() - F((p[:, None] * z).sum(axis=0))), float((p * np.abs(fz)).sum())


def fd_reference(case: Case, hp: float, self_paired: bool) -> tuple:
    """Functional and Holder-branch link of 1.6/1.8 with the O(n) pair-index sum."""
    p = case.w.astype(L)
    i = np.arange(1, case.n + 1, dtype=L)
    P = np.concatenate(([0], np.cumsum(p)[:-1]))
    S = np.concatenate(([0], np.cumsum(i * p)[:-1]))
    c2 = float((p * (i * P - S)).sum())
    cx = np.sqrt((np.diff(case.xs.astype(L), axis=0) ** 2).sum(axis=1))
    cy = cx if self_paired else np.sqrt((np.diff(case.ys.astype(L), axis=0) ** 2).sum(axis=1))
    hq = 1.0 if math.isinf(hp) else hp / (hp - 1.0)

    def holder(c, e):
        return float(c.max()) if math.isinf(e) else float((c ** e).sum() ** (1.0 / e))

    ref = references(case)
    f = ref["var_x"] if self_paired else abs(ref["cheb"])
    scale = ref["s_var"] if self_paired else ref["s_cheb"]
    return f, scale, c2 * holder(cx, hp) * holder(cy, hq)


# -- ops --------------------------------------------------------------------


def enclosure_op(tr, case: Case, tag: str):
    """Raw arrays -> weights, sequence, fitted enclosure(s)/disc -> chain."""
    sp = case.space
    p = tr.call("space.ProbabilityVector", gb.ProbabilityVector, case.w)
    if tag == "R2.7":
        disc = fit_disc(tr, case.alphas)
        return tr.call("bounds.R2.7", gb.bound_complex_sequence, disc[0], disc[1], p, case.alphas), None, None, disc
    seqs = {"xs": case.xs}
    if tag in ("2.3", "2.7"):
        seqs["ys"] = case.ys
    if tag in ("2.9", "2.11"):
        seqs["alphas"] = case.alphas
    nbytes = case.w.nbytes + sum(a.nbytes for a in seqs.values())
    ws = tr.call("functionals.weighted_sequence", gb.WeightedSequence, sp, p, nbytes=nbytes, **seqs)
    ex = tr.call("conditions.fit_enclosure", gb.fit_enclosure, sp, ws.xs)
    ey = disc = None
    if tag == "2.3":
        chain = tr.call("bounds.2.3", gb.bound_chebyshev, ex, ws)
    elif tag == "2.7":
        ey = tr.call("conditions.fit_enclosure", gb.fit_enclosure, sp, ws.ys)
        chain = tr.call("bounds.2.7", gb.bound_chebyshev_gruss, ex, ey, ws)
    elif tag == "2.8":
        chain = tr.call("bounds.2.8", gb.bound_variance, ex, p, ws.xs)
    elif tag == "2.9":
        chain = tr.call("bounds.2.9", gb.bound_scalar_weighted, ex, ws)
    else:
        disc = fit_disc(tr, ws.alphas)
        chain = tr.call("bounds.2.11", gb.bound_scalar_weighted, ex, ws, disc=disc)
    return chain, ex, ey, disc


def side_ops(tr, jcase: Case, fcase: Case) -> list:
    """(name, thunk, check) for the reverse-Jensen and forward-difference ops."""
    ops = []
    for name in ORACLES:
        oracle = gb.get_oracle(name, jcase.space)
        if tr.on:
            oracle = counting_oracle(tr, oracle)
        gap, scale = jensen_reference(name, jcase)

        def run_jensen(oracle=oracle):
            if tr.on:
                tr.count("jensen.points", jcase.n)
            return tr.call("jensen.reverse_jensen", gb.reverse_jensen, jcase.space, oracle, jcase.w, jcase.zs)

        def check_jensen(rep, gap=gap, scale=scale):
            return jensen_ok(rep) and close_rel(rep.gap, gap, scale)

        ops.append((f"jensen.{name}", run_jensen, check_jensen))
    for hp in (2.0, math.inf):
        for self_paired in (False, True):
            f, scale, holder_link = fd_reference(fcase, hp, self_paired)

            def run_fd(hp=hp, self_paired=self_paired):
                p = tr.call("space.ProbabilityVector", gb.ProbabilityVector, fcase.w)
                if self_paired:
                    return tr.call("bounds.1.8", gb.bound_forward_difference_self, fcase.space, p, fcase.xs, holder_p=hp)
                ws = tr.call(
                    "functionals.weighted_sequence", gb.WeightedSequence, fcase.space, p, xs=fcase.xs, ys=fcase.ys,
                    nbytes=fcase.w.nbytes + fcase.xs.nbytes + fcase.ys.nbytes,
                )
                return tr.call("bounds.1.6", gb.bound_forward_difference, ws, holder_p=hp)

            def check_fd(chain, f=f, scale=scale, link=holder_link):
                return chain.holds() and close_rel(chain.functional_value, f, scale) and close_rel(chain.links[1].value, link, link)

            ops.append((f"fd.{'1.8' if self_paired else '1.6'}.{hp}", run_fd, check_fd))
    return ops


def _values(out) -> tuple:
    if isinstance(out, tuple):
        return out[0].values()
    return (out.chain if hasattr(out, "chain") else out).values()


def run(ctx) -> dict:
    tr, launcher, seconds = ctx.tracer, ctx.launcher, ctx.seconds
    rng = np.random.default_rng([ctx.seed, 2])
    cases = [make_case(rng, n, dim, cplx) for n, dim, cplx in SHAPES]
    jcase = make_case(rng, JENSEN_N, 3, False)
    fcase = make_case(rng, FD_N, 3, False)
    setup_raw, setup = import_seconds(launcher, "grussbounds")
    host = HostSpeed(lambda: host_reference(cases[0].xs), HOST_REF_S)
    jensen_host = HostSpeed(python_reference, PYTHON_REF_S, "jensen_host_speed_factor")

    refs = [references(c) for c in cases]
    side = side_ops(tr, jcase, fcase)

    attempted = failed = 0
    first: dict = {}
    main_lat, batches, rows = [], [], 0
    main_ref, batches_ref = [], []  # at the reference host speed
    spans_before = len(tr.spans)
    busy = 0.0
    t_start = time.perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() - t_start < seconds:
        cycles += 1
        for ci, case in enumerate(cases):
            for tag in TAGS:
                host.tick()
                attempted += 1
                tr.op += 1
                key = (ci, tag)
                try:
                    t0 = time.perf_counter_ns()
                    out = enclosure_op(tr, case, tag)
                    dt = (time.perf_counter_ns() - t0) * 1e-9
                    busy += dt
                    if key not in first:
                        ok = check_main(tag, case, out, refs[ci])
                        first[key] = _values(out) if ok else None  # a wrong op stays failed
                    else:
                        ok = _values(out) == first[key] and out[0].holds()
                except Exception as exc:  # an unexpected exception is a failed op
                    op_failed(f"{tag} n={case.n}", exc)
                    ok = False
                if not ok:
                    failed += 1
                    continue
                main_lat.append(dt)
                main_ref.append(host.scale(dt))
                rows += case.n
        batch = batch_ref = 0.0
        for name, thunk, check in side:
            ref = jensen_host if name.startswith("jensen.") else host
            ref.tick()
            attempted += 1
            tr.op += 1
            try:
                t0 = time.perf_counter_ns()
                out = thunk()
                dt = (time.perf_counter_ns() - t0) * 1e-9
                busy += dt
                if name not in first:
                    ok = check(out)
                    first[name] = _values(out) if ok else None
                else:
                    ok = _values(out) == first[name]
            except Exception as exc:
                op_failed(name, exc)
                ok = False
            if not ok:
                failed += 1
                continue
            batch += dt
            batch_ref += ref.scale(dt)
        batches.append(batch)
        batches_ref.append(batch_ref)
    loop_spans = len(tr.spans) - spans_before

    if ctx.trace:
        c0 = cases[0]
        w = c0.w[:DOC_PREFIX] / c0.w[:DOC_PREFIX].sum()
        doc_case = Case(c0.space, w, c0.xs[:DOC_PREFIX], c0.ys[:DOC_PREFIX], c0.alphas[:DOC_PREFIX], c0.zs[:DOC_PREFIX])
        extra = run_probe(tr, launcher, cases, fcase, jcase, [doc_case], builders=False)
    else:
        extra = {}

    main = latency_summary(main_lat, MAIN_LEVEL)
    main_at_ref = latency_summary(main_ref, MAIN_LEVEL)
    array_bytes = sum(c.w.nbytes + c.xs.nbytes + c.ys.nbytes + c.alphas.nbytes for c in cases + [jcase, fcase])
    return {
        "attempted": attempted,
        "failed": failed,
        "loop_spans": loop_spans,
        "loop_seconds": busy,
        "extra": extra,
        "array_bytes": array_bytes,
        "metrics": {
            "setup_s": setup,
            "peak_rss_mb": self_rss_mb(),
            "op_ms_p50": main_at_ref["p50"] * 1e3,
            "op_ms_tail": main_at_ref["tail"] * 1e3,
            "ops_per_s": len(main_ref) / sum(main_ref),
            "mrows_per_s": rows / sum(main_ref) / 1e6,
            "side_batch_s": statistics.median(batches_ref),
        },
        "report": [
            ("large_mrows_per_s", rows / sum(main_lat) / 1e6, "Mrows/s", f"{rows} rows in {len(main_lat)} ops"),
            ("large_op_s_p50", main["p50"], "s", ""),
            ("large_op_s_tail", main["tail"], "s", f"p{main['level'] * 100:g} of n={main['n']}"),
            ("large_side_batch_s", statistics.median(batches), "s",
             f"{len(side)} ops: reverse_jensen n={JENSEN_N}, 1.6/1.8 n={FD_N}; median of {len(batches)}"),
            ("large_setup_s", setup_raw, "s", "import of grussbounds, raw"),
            host.report(),
            jensen_host.report(),
        ],
    }
