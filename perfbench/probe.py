"""Per-layer numbers for the traced run.

After the traced ops, ``run_probe`` calls each lower-layer public function
directly on the workload's own inputs, so that time is attributed to a layer
from outside the program. Builders are measured whole (``bounds.*`` spans)
and their parts in isolation (``functionals.*``, ``conditions.*``,
``space.*``); the two are reported side by side and no self time is derived
by subtracting one from the other, because isolated parts need not add up to
the whole (cache state and repeated validation differ).
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from dataclasses import dataclass

import numpy as np

import grussbounds as gb
from grussbounds import cli, instancefile

#: Targets whose budget-to-0.999 is bisected, at (n, dim) = SHARP_BISECT_SHAPE
#: with search seed 0, so the count is a property of the program, not the run.
SHARP_BISECT_TARGETS = ("thm23_first", "thm23_second", "rem24_final", "thm25_first")
SHARP_BISECT_SHAPE = (4, 2)
SHARP_BISECT_CAP = 1024
SHARP_PROBE_BUDGET = 200

#: Points fed to gradient_check in the probe (its per-point loop is slow).
GRADIENT_CHECK_POINTS = 5000

FUNCTIONAL_LAYERS = ("weighted_sequence", "chebyshev", "mad", "variance", "vector_gruss", "alpha_stats")
BOUND_TAGS = ("2.3", "2.7", "2.8", "2.9", "2.11", "R2.7", "1.6", "1.8")


@dataclass
class Case:
    """One input set: raw arrays as a user would hold them."""

    space: gb.Space
    w: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    alphas: np.ndarray
    zs: np.ndarray | None = None  # real cases only

    @property
    def n(self) -> int:
        return int(self.xs.shape[0])


def random_case(rng: np.random.Generator, space: gb.Space, n: int) -> Case:
    """Exponential weights, standard normal sequences (with an imaginary part
    on complex spaces); on real spaces the Jensen points are the xs."""

    def draw(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if space.is_complex else a

    w = rng.exponential(size=n)
    xs = draw(n, space.dim)
    return Case(space, w / w.sum(), xs, draw(n, space.dim), draw(n), None if space.is_complex else xs)


def counting_oracle(tr, oracle: gb.ConvexOracle) -> gb.ConvexOracle:
    """Wrap an oracle so every eval/grad call is counted exactly."""

    def value(z):
        tr.count("jensen.eval_calls")
        return oracle.eval(z)

    def gradient(z):
        tr.count("jensen.grad_calls")
        return oracle.grad(z)

    return gb.ConvexOracle(oracle.name, value, gradient)


def fit_disc(tr, alphas: np.ndarray) -> tuple:
    """Scalar disc (a, A) fitted as a one-dimensional complex enclosure."""
    pts = np.asarray(alphas, dtype=np.complex128)[:, None]
    encl = tr.call("conditions.fit_enclosure", gb.fit_enclosure, gb.Space(1, "complex"), pts)
    return complex(encl.lo[0]), complex(encl.hi[0])


def evaluate_builders(tr, p, ws, ex, ey, disc) -> list:
    """Every enclosure/disc chain on one case, each in its own ``bounds.<tag>`` span."""
    a, A = disc
    return [
        tr.call("bounds.2.3", gb.bound_chebyshev, ex, ws),
        tr.call("bounds.2.7", gb.bound_chebyshev_gruss, ex, ey, ws),
        tr.call("bounds.2.8", gb.bound_variance, ex, p, ws.xs),
        tr.call("bounds.2.9", gb.bound_scalar_weighted, ex, ws),
        tr.call("bounds.2.11", gb.bound_scalar_weighted, ex, ws, disc=disc),
        tr.call("bounds.R2.7", gb.bound_complex_sequence, a, A, p, ws.alphas),
    ]


def _probe_case(tr, case: Case, builders: bool) -> None:
    sp = case.space
    seq_bytes = case.xs.nbytes + case.w.nbytes
    p = tr.call("space.ProbabilityVector", gb.ProbabilityVector, case.w)
    tr.call("space.matrix", sp.matrix, case.xs, nbytes=case.xs.nbytes)
    ws = tr.call(
        "functionals.weighted_sequence",
        gb.WeightedSequence, sp, p, xs=case.xs, ys=case.ys, alphas=case.alphas,
        nbytes=seq_bytes + case.ys.nbytes + case.alphas.nbytes,
    )
    ex = tr.call("conditions.fit_enclosure", gb.fit_enclosure, sp, ws.xs)
    tr.call("conditions.check_ball", gb.check_ball, ex, ws.xs, nbytes=case.xs.nbytes)
    tr.call("conditions.check_box", gb.check_box, ex, ws.xs, nbytes=case.xs.nbytes)
    tr.call("functionals.mad", gb.mad, sp, p, ws.xs, nbytes=seq_bytes)
    tr.call("functionals.variance", gb.variance, sp, p, ws.xs, nbytes=seq_bytes)
    tr.call("functionals.chebyshev", gb.chebyshev, ws, nbytes=seq_bytes + case.ys.nbytes)
    tr.call("functionals.vector_gruss", gb.vector_gruss, ws, nbytes=seq_bytes + case.alphas.nbytes)
    tr.call(
        "functionals.alpha_stats",
        lambda: (gb.alpha_abs_deviation(p, ws.alphas), gb.alpha_variance(p, ws.alphas)),
        nbytes=case.alphas.nbytes + case.w.nbytes,
    )
    if builders:
        ey = tr.call("conditions.fit_enclosure", gb.fit_enclosure, sp, ws.ys)
        evaluate_builders(tr, p, ws, ex, ey, fit_disc(tr, ws.alphas))


def probe_fd(tr, case: Case, builders: bool) -> float:
    """pair_index_coefficient time (span) and its tracemalloc peak in MB."""
    p = gb.ProbabilityVector(case.w)
    tr.call("bounds.pair_index_coefficient", gb.pair_index_coefficient, p)
    tracemalloc.start()
    try:
        gb.pair_index_coefficient(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if builders:
        ws = gb.WeightedSequence(case.space, p, xs=case.xs, ys=case.ys)
        for h in (2.0, float("inf")):
            tr.call("bounds.1.6", gb.bound_forward_difference, ws, holder_p=h)
        tr.call("bounds.1.8", gb.bound_forward_difference_self, case.space, p, case.xs)
    return peak / 2**20


def probe_jensen(tr, case: Case, builders: bool) -> None:
    zs = case.zs[:GRADIENT_CHECK_POINTS]
    for name in ("squared_norm", "diag_quadratic", "log_sum_exp", "norm_fourth"):
        oracle = gb.get_oracle(name, case.space)
        tr.call("jensen.gradient_check", gb.gradient_check, case.space, oracle, zs)
        if builders:
            tr.count("jensen.points", case.n)
            tr.call("jensen.reverse_jensen", gb.reverse_jensen, case.space, counting_oracle(tr, oracle), case.w, case.zs)


def probe_document(tr, case: Case) -> None:
    """Serialize, decode, validate and dispatch one instance document."""
    doc = instancefile.instance_document(
        case.space, weights=case.w, xs=case.xs, ys=case.ys, alphas=case.alphas, zs=case.zs
    )
    text = tr.call("instancefile.dumps", instancefile.dumps, doc)
    decoded = tr.call("instancefile.json_decode", json.loads, text)
    inst = tr.call("instancefile.parse_document", instancefile.parse_document, decoded)
    for tag in ("2.7", "2.11", "R2.7"):
        tr.call("cli.evaluate_tag", cli.evaluate_tag, inst, tag, True, True, None)


def search(tr, target: str, n: int, dim: int, budget: int, seed: int):
    result = tr.call(f"sharpness.{target}", gb.search, target, n, dim, budget, seed)
    tr.count(f"sharpness.{target}.evals", result.trials)
    return result


def evals_to_0999(tr) -> int:
    """Sum over SHARP_BISECT_TARGETS of the least budget reaching ratio 0.999.

    Bisection is valid because the evaluation stream of a smaller budget is
    a prefix of a larger one, so the achieved ratio is monotone in the budget.
    """
    n, dim = SHARP_BISECT_SHAPE
    total = 0
    for target in SHARP_BISECT_TARGETS:
        if search(tr, target, n, dim, SHARP_BISECT_CAP, 0).achieved_ratio < 0.999:
            raise RuntimeError(f"{target} does not reach 0.999 within {SHARP_BISECT_CAP} evaluations")
        lo, hi = 0, SHARP_BISECT_CAP  # ratio(lo) < 0.999 <= ratio(hi); ratio(0) is undefined, so < holds
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if search(tr, target, n, dim, mid, 0).achieved_ratio >= 0.999:
                hi = mid
            else:
                lo = mid
        total += hi
    return total


def cli_startup_ms(launcher) -> float:
    times = []
    for _ in range(5):
        reply = launcher.python("-m", "grussbounds.cli", "--help")
        if reply["rc"] != 0:
            raise RuntimeError(f"grussbounds.cli --help exited {reply['rc']}")
        times.append(reply["wall_s"] * 1e3)
    return statistics.median(times)


def run_probe(tr, launcher, cases: list, fd_case: Case, jensen_case: Case, doc_cases: list, builders: bool) -> dict:
    """Call every layer on the workload's inputs; returns the values not taken from spans."""
    tr.op += 1
    for case in cases:
        _probe_case(tr, case, builders)
    fd_peak = probe_fd(tr, fd_case, builders)
    probe_jensen(tr, jensen_case, builders)
    for case in doc_cases:
        probe_document(tr, case)
    for target in gb.TARGETS:
        search(tr, target, 2, 1, SHARP_PROBE_BUDGET, 0)
    return {
        "bounds.fd_coeff_peak_mb": fd_peak,
        "sharpness.evals_to_0.999": evals_to_0999(tr),
        "cli.startup_ms": cli_startup_ms(launcher),
    }


def layer_metrics(tr, extra: dict, loop_spans: int, loop_seconds: float) -> dict:
    """Aggregate spans and counts into the per-layer metric values."""
    totals = tr.totals()

    def mean(name: str, scale: float) -> float:
        calls, ns, _ = totals[name]
        return ns / calls * scale

    out = {
        "space.matrix_us": mean("space.matrix", 1e-3),
        "conditions.fit_enclosure_ms": mean("conditions.fit_enclosure", 1e-6),
        "conditions.check_ball_us": mean("conditions.check_ball", 1e-3),
        "conditions.check_box_us": mean("conditions.check_box", 1e-3),
    }
    for layer in FUNCTIONAL_LAYERS:
        calls, ns, nbytes = totals[f"functionals.{layer}"]
        out[f"functionals.{layer}_us"] = ns / calls * 1e-3
        out[f"functionals.{layer}.gbps_computed"] = nbytes / ns
    for tag in BOUND_TAGS:
        out[f"bounds.{tag}_us"] = mean(f"bounds.{tag}", 1e-3)
    out["bounds.fd_coeff_ms"] = mean("bounds.pair_index_coefficient", 1e-6)
    out["jensen.reverse_jensen_ms"] = mean("jensen.reverse_jensen", 1e-6)
    out["jensen.gradient_check_ms"] = mean("jensen.gradient_check", 1e-6)
    points = tr.counts["jensen.points"]
    out["jensen.grad_calls_per_point"] = tr.counts["jensen.grad_calls"] / points
    out["jensen.eval_calls_per_point"] = tr.counts["jensen.eval_calls"] / points
    for target in gb.TARGETS:
        out[f"sharpness.{target}.us_per_eval"] = totals[f"sharpness.{target}"][1] * 1e-3 / tr.counts[f"sharpness.{target}.evals"]
    out["instancefile.json_decode_s"] = mean("instancefile.json_decode", 1e-9)
    out["instancefile.parse_document_s"] = mean("instancefile.parse_document", 1e-9)
    out["instancefile.parse_over_decode"] = totals["instancefile.parse_document"][1] / totals["instancefile.json_decode"][1]
    out["instancefile.dumps_s"] = mean("instancefile.dumps", 1e-9)
    out["cli.evaluate_tag_s"] = mean("cli.evaluate_tag", 1e-9)
    out["trace.overhead_pct"] = 100.0 * loop_spans * tr.span_cost_ns() * 1e-9 / loop_seconds
    out.update(extra)
    return out

