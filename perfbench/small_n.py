"""Workload ``small_n``: the per-call-overhead regime.

A seeded stream of small instances (n in [2, 32], dim in [1, 8], about half
complex, about a quarter with a diagonal metric) is evaluated by every
public chain builder, with enclosures and discs fitted once up front. At
these sizes nearly all time goes to validation, dataclass construction and
tiny ufunc calls, not to array arithmetic. Sharpness searches at fixed
budgets are interleaved with the cycles of chains.
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
from probe import Case, counting_oracle, fit_disc, random_case, run_probe, search

import brute  # the pure-Python reference sums of the test suite

INSTANCES = 248  # a multiple of the 31 values of n and the 8 of dim
ORACLES = ("squared_norm", "diag_quadratic", "log_sum_exp", "norm_fourth")

MAIN_MIN_OPS = 10000
MAIN_LEVEL = tail_level(MAIN_MIN_OPS)

SHARP_SHAPES = ((2, 1), (4, 2))
SHARP_BUDGETS = (150, 450)
SHARP_PASSES = 3  # minimum full passes over the search configurations
SHARP_PER_CYCLE = 3  # searches run after each cycle of chains
SIDE_COUNT = SHARP_PASSES * len(gb.TARGETS) * len(SHARP_SHAPES) * len(SHARP_BUDGETS)
SIDE_LEVEL = tail_level(SIDE_COUNT)

RATIO_GUARD = 1e-9

HOST_EVERY = 256  # ops per run of the host-speed reference
FIT_REPEATS = 5  # runs of the up-front fits; the median is reported


def make_cases(rng: np.random.Generator) -> list:
    """INSTANCES cases of fixed composition; only the values come from ``rng``.

    n cycles through 2..32, dim through 1..8, every second case is complex
    and every fourth has a diagonal metric, so every seed runs the same mix
    of shapes and only the numbers differ.
    """
    cases = []
    for k in range(INSTANCES):
        n, dim = 2 + k % 31, 1 + (k // 2) % 8
        is_complex = k % 2 == 1
        metric = rng.uniform(0.2, 3.0, dim) if k % 4 == 0 else None
        cases.append(random_case(rng, gb.Space(dim, "complex" if is_complex else "real", metric), n))
    return cases


def prepare(tr, cases: list) -> list:
    """The one-off program calls: weights, sequences, enclosures, discs, oracles."""
    prepared = []
    for case in cases:
        sp = case.space
        p = tr.call("space.ProbabilityVector", gb.ProbabilityVector, case.w)
        ws = tr.call(
            "functionals.weighted_sequence", gb.WeightedSequence, sp, p, xs=case.xs, ys=case.ys, alphas=case.alphas,
            nbytes=case.w.nbytes + case.xs.nbytes + case.ys.nbytes + case.alphas.nbytes,
        )
        ex = tr.call("conditions.fit_enclosure", gb.fit_enclosure, sp, ws.xs)
        ey = tr.call("conditions.fit_enclosure", gb.fit_enclosure, sp, ws.ys)
        disc = fit_disc(tr, ws.alphas)
        oracles = [] if sp.is_complex else [gb.get_oracle(name, sp) for name in ORACLES]
        prepared.append((case, p, ws, ex, ey, disc, oracles))
    return prepared


def make_ops(tr, prepared: list) -> list:
    """(tag, case, thunk) for every chain of every instance, in stream order."""
    ops = []
    for case, p, ws, ex, ey, disc, oracles in prepared:
        a, A = disc
        sp = case.space
        ops += [
            ("2.3", case, lambda ex=ex, ws=ws: tr.call("bounds.2.3", gb.bound_chebyshev, ex, ws)),
            ("2.7", case, lambda ex=ex, ey=ey, ws=ws: tr.call("bounds.2.7", gb.bound_chebyshev_gruss, ex, ey, ws)),
            ("2.8", case, lambda ex=ex, p=p, ws=ws: tr.call("bounds.2.8", gb.bound_variance, ex, p, ws.xs)),
            ("2.9", case, lambda ex=ex, ws=ws: tr.call("bounds.2.9", gb.bound_scalar_weighted, ex, ws)),
            ("2.11", case, lambda ex=ex, ws=ws, d=disc: tr.call("bounds.2.11", gb.bound_scalar_weighted, ex, ws, disc=d)),
            ("R2.7", case, lambda a=a, A=A, p=p, ws=ws: tr.call("bounds.R2.7", gb.bound_complex_sequence, a, A, p, ws.alphas)),
            ("1.6", case, lambda ws=ws: tr.call("bounds.1.6", gb.bound_forward_difference, ws, holder_p=2.0)),
            ("1.6", case, lambda ws=ws: tr.call("bounds.1.6", gb.bound_forward_difference, ws, holder_p=math.inf)),
            ("1.8", case, lambda sp=sp, p=p, ws=ws: tr.call("bounds.1.8", gb.bound_forward_difference_self, sp, p, ws.xs)),
        ]
        for oracle in oracles:
            if tr.on:
                oracle = counting_oracle(tr, oracle)

            def jensen(sp=sp, oracle=oracle, case=case):
                if tr.on:
                    tr.count("jensen.points", case.n)
                return tr.call("jensen.reverse_jensen", gb.reverse_jensen, sp, oracle, case.w, case.zs)

            ops.append(("jensen", case, jensen))
    return ops


def _brute_norm(vec, metric) -> float:
    return math.sqrt(sum((1.0 if metric is None else float(metric[k])) * abs(v) ** 2 for k, v in enumerate(vec)))


def reference(tag: str, case: Case) -> float | None:
    """Functional value from the independent pure-Python sums, or None."""
    p = case.w.tolist()
    xs, ys, al = case.xs.tolist(), case.ys.tolist(), case.alphas.tolist()
    metric = case.space.metric
    if tag in ("2.3", "2.7", "1.6"):
        return abs(brute.brute_chebyshev(p, xs, ys, metric))
    if tag in ("2.8", "1.8"):
        return max(brute.brute_variance(p, xs, metric), 0.0)
    if tag in ("2.9", "2.11"):
        return _brute_norm(brute.brute_gruss(p, al, xs), metric)
    if tag == "R2.7":
        mean = sum(pi * complex(a) for pi, a in zip(p, al))
        return abs(sum(pi * complex(a) ** 2 for pi, a in zip(p, al)) - mean * mean)
    return None


def check_chain(tag: str, case: Case, out) -> bool:
    if tag == "jensen":
        return jensen_ok(out)
    if not out.holds():
        return False
    ref = reference(tag, case)
    return ref is None or close_rel(out.functional_value, ref, 0.0)


def run(ctx) -> dict:
    tr, launcher, seconds = ctx.tracer, ctx.launcher, ctx.seconds
    cases = make_cases(np.random.default_rng([ctx.seed, 1]))

    host = HostSpeed(python_reference, PYTHON_REF_S)
    fit_times, fit_ref = [], []
    for _ in range(FIT_REPEATS):
        host.tick()
        t0 = time.perf_counter()
        prepared = prepare(tr, cases)
        fit_times.append(time.perf_counter() - t0)
        fit_ref.append(host.scale(fit_times[-1]))
    import_raw, import_s = import_seconds(launcher, "grussbounds")
    ops = make_ops(tr, prepared)

    configs = [(t_idx, target, shape, budget) for t_idx, target in enumerate(gb.TARGETS)
               for shape in SHARP_SHAPES for budget in SHARP_BUDGETS]
    attempted = failed = 0
    first: dict = {}  # op index -> values of its first evaluation
    lat, rows, spans_before = [], 0, len(tr.spans)
    batches, batch, per_eval, ratios, evals = [], 0.0, [], [], 0
    lat_ref, batches_ref, batch_ref = [], [], 0.0  # at the reference host speed
    seen: dict = {}
    next_config = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or len(lat) < MAIN_MIN_OPS or len(batches) < SHARP_PASSES:
        for k, (tag, case, thunk) in enumerate(ops):
            if k % HOST_EVERY == 0:
                host.tick()
            attempted += 1
            tr.op += 1
            try:
                t0 = time.perf_counter_ns()
                out = thunk()
                dt = time.perf_counter_ns() - t0
                chain = out.chain if tag == "jensen" else out
                if k not in first:
                    ok = check_chain(tag, case, out)
                    first[k] = chain.values() if ok else None  # a wrong op stays failed
                else:
                    ok = chain.values() == first[k] and chain.holds()
            except Exception as exc:  # an unexpected exception is a failed op
                op_failed(tag, exc)
                ok = False
            if not ok:
                failed += 1
                continue
            lat.append(dt * 1e-9)
            lat_ref.append(host.scale(lat[-1]))
            rows += case.n
        # sharpness searches are interleaved with the chain cycles so that both
        # phases see the same stretch of machine noise
        for _ in range(SHARP_PER_CYCLE):
            t_idx, target, shape, budget = configs[next_config]
            next_config = (next_config + 1) % len(configs)
            attempted += 1
            tr.op += 1
            host.tick()
            t0 = time.perf_counter_ns()
            try:
                result = search(tr, target, shape[0], shape[1], budget, ctx.seed * 16 + t_idx)
            except Exception as exc:
                op_failed(f"search {target}", exc)
                failed += 1
                continue
            dt = (time.perf_counter_ns() - t0) * 1e-9
            ratio = result.achieved_ratio
            # ratio <= 1 (the inequality), not below the smaller budget's
            # ratio, and the same on every pass (seeded determinism)
            smaller = [seen[(target, shape, b)] for b in SHARP_BUDGETS if b < budget and (target, shape, b) in seen]
            ok = ratio <= 1.0 + RATIO_GUARD and all(ratio >= r for r in smaller) and seen.setdefault((target, shape, budget), ratio) == ratio
            if not ok:
                failed += 1
            else:
                batch += dt
                batch_ref += host.scale(dt)
                evals += result.trials
                per_eval.append(dt / result.trials)
                if budget == SHARP_BUDGETS[-1] and len(batches) == 0:
                    ratios.append(ratio)
            if next_config == 0:
                batches.append(batch)
                batches_ref.append(batch_ref)
                batch = batch_ref = 0.0
    loop_spans = len(tr.spans) - spans_before

    if ctx.trace:
        largest = _largest_real(cases)
        extra = run_probe(tr, launcher, cases[:40], largest, largest, cases[:20], builders=False)
    else:
        extra = {}

    main = latency_summary(lat, MAIN_LEVEL)
    side = latency_summary(per_eval, SIDE_LEVEL)
    main_at_ref = latency_summary(lat_ref, MAIN_LEVEL)
    fits = statistics.median(fit_times)
    return {
        "attempted": attempted,
        "failed": failed,
        "loop_spans": loop_spans,
        "loop_seconds": sum(lat),
        "extra": extra,
        "array_bytes": sum(c.xs.nbytes + c.ys.nbytes + c.alphas.nbytes + c.w.nbytes for c in cases),
        "metrics": {
            "setup_s": import_s + statistics.median(fit_ref),
            "peak_rss_mb": self_rss_mb(),
            "op_ms_p50": main_at_ref["p50"] * 1e3,
            "op_ms_tail": main_at_ref["tail"] * 1e3,
            "ops_per_s": len(lat_ref) / sum(lat_ref),
            "mrows_per_s": rows / sum(lat_ref) / 1e6,
            "side_batch_s": statistics.median(batches_ref),
        },
        "report": [
            ("small_chains_per_s", len(lat) / sum(lat), "1/s", f"{len(lat)} chains"),
            ("small_chain_us_p50", main["p50"] * 1e6, "us", ""),
            ("small_chain_us_tail", main["tail"] * 1e6, "us", f"p{main['level'] * 100:g} of n={main['n']}"),
            ("sharpness_evals_per_s", evals / sum(batches), "1/s", f"{evals} evaluations"),
            ("sharpness_ratio_mean", statistics.fmean(ratios), "ratio", f"budget {SHARP_BUDGETS[-1]}, {len(ratios)} searches"),
            ("sharpness_eval_us_p50", side["p50"] * 1e6, "us", "per search call: time / evaluations"),
            ("sharpness_eval_us_tail", side["tail"] * 1e6, "us", f"p{side['level'] * 100:g} of n={side['n']}"),
            ("sharpness_pass_s", statistics.median(batches), "s", f"median of {len(batches)} full passes"),
            ("small_setup_s", import_raw + fits, "s", f"import {import_raw:.4f} s + up-front fits {fits:.4f} s, raw"),
            host.report(),
        ],
    }


def _largest_real(cases: list) -> Case:
    return max((c for c in cases if not c.space.is_complex), key=lambda c: c.n)
