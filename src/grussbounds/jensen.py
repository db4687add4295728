"""Reverse Jensen inequality for differentiable convex functions.

For a convex ``F`` with gradient ``grad F`` on a real space, nonnegative
weights ``q`` (positive total, normalized internally) and points ``z_i``:

* ``jensen_gap``    sum p_i F(z_i) - F(sum p_i z_i)         (>= 0 for convex F)
* ``pairing_gap``   sum p_i <grad F(z_i), z_i> - <mean grad, mean z>

The gap never exceeds the pairing gap, and both are dominated by the chain
built from an enclosure (m, M) of the gradient set:

    gap <= diam(grad)/2 * mad(z) <= diam(grad)/2 * std(z)
        <= diam(grad)/4 * diam(z)          (when a z-enclosure also holds)

Gradient enclosures are fitted from the finite set {grad F(z_i)} when not
supplied. Everything here is real: complex spaces are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import BoundChain, BoundLink, _same_space
from .conditions import Enclosure, _dual_report, _fit
from .errors import ContractViolationError, DegenerateInputError, HypothesisError
from .functionals import _Centered, _pair
from .space import ProbabilityVector, Space, inner


@dataclass(frozen=True, eq=False)
class ConvexOracle:
    """Pointwise evaluation and gradient of a convex function on a space.

    Both callables must be pure; ``grad`` returns the gradient representer
    with respect to the space's inner product.
    """

    name: str
    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class JensenReport:
    gap: float
    pairing_gap: float
    chain: BoundChain
    improvement_ratio: float | None
    grad_encl: Enclosure
    z_encl: Enclosure | None


def _metric(space: Space) -> np.ndarray:
    return space.metric if space.metric is not None else np.ones(space.dim)


def squared_norm_oracle(space: Space) -> ConvexOracle:
    """F(z) = ||z||^2 with gradient 2z."""

    def value(z: np.ndarray) -> float:
        return float(np.real(inner(space, z, z)))

    def gradient(z: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(z, dtype=np.float64)

    return ConvexOracle("squared_norm", value, gradient)


def diagonal_quadratic_oracle(space: Space, diag=None) -> ConvexOracle:
    """F(z) = <Qz, z> for a positive diagonal Q (default q_k = 1 + k/dim)."""
    if diag is None:
        diag = 1.0 + np.arange(space.dim, dtype=np.float64) / space.dim
    diag = np.asarray(diag, dtype=np.float64)
    if diag.shape != (space.dim,) or np.any(diag <= 0.0):
        raise ContractViolationError("diag must be a strictly positive vector of length dim")
    m = _metric(space)

    def value(z: np.ndarray) -> float:
        z = np.asarray(z, dtype=np.float64)
        return float((m * diag * z * z).sum())

    def gradient(z: np.ndarray) -> np.ndarray:
        return 2.0 * diag * np.asarray(z, dtype=np.float64)

    return ConvexOracle("diag_quadratic", value, gradient)


def log_sum_exp_oracle(space: Space) -> ConvexOracle:
    """F(z) = log sum_k exp(z_k); the representer divides softmax by the metric."""
    m = _metric(space)

    def value(z: np.ndarray) -> float:
        z = np.asarray(z, dtype=np.float64)
        zmax = float(z.max())
        return zmax + math.log(float(np.exp(z - zmax).sum()))

    def gradient(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        e = np.exp(z - z.max())
        return (e / e.sum()) / m

    return ConvexOracle("log_sum_exp", value, gradient)


def norm_fourth_oracle(space: Space) -> ConvexOracle:
    """F(z) = ||z||^4 with gradient 4 ||z||^2 z."""

    def value(z: np.ndarray) -> float:
        return float(np.real(inner(space, z, z))) ** 2

    def gradient(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        return 4.0 * float(np.real(inner(space, z, z))) * z

    return ConvexOracle("norm_fourth", value, gradient)


def faulty_squared_norm_oracle(space: Space) -> ConvexOracle:
    """Deliberately mis-scaled gradient (2.2z); ships for fault-injection tests."""
    base = squared_norm_oracle(space)

    def gradient(z: np.ndarray) -> np.ndarray:
        return 1.1 * base.grad(z)

    return ConvexOracle("faulty_squared_norm", base.eval, gradient)


ORACLE_FACTORIES: dict[str, Callable[[Space], ConvexOracle]] = {
    "squared_norm": squared_norm_oracle,
    "diag_quadratic": diagonal_quadratic_oracle,
    "log_sum_exp": log_sum_exp_oracle,
    "norm_fourth": norm_fourth_oracle,
    "faulty_squared_norm": faulty_squared_norm_oracle,
}


def get_oracle(name: str, space: Space) -> ConvexOracle:
    _require_real(space)
    try:
        factory = ORACLE_FACTORIES[name]
    except KeyError:
        raise ContractViolationError(
            f"unknown oracle {name!r}; available: {', '.join(sorted(ORACLE_FACTORIES))}"
        ) from None
    return factory(space)


def _require_real(space: Space) -> None:
    if space.is_complex:
        raise ContractViolationError("convex-function machinery is defined on real spaces only")


def gradient_check(space: Space, oracle: ConvexOracle, samples, h: float = 1e-5) -> float:
    """Max relative error of <grad, d> against central differences of eval.

    Directions are drawn from a fixed-seed generator, so the check is
    deterministic. Relative error uses max(1, |fd|, |<grad,d>|) as scale.
    """
    _require_real(space)
    if not 0.0 < h <= 1e-2:
        raise ContractViolationError(f"step h must lie in (0, 1e-2], got {h!r}")
    samples = space.matrix(samples)
    rng = np.random.default_rng(1754)
    worst = 0.0
    for z in samples:
        g = oracle.grad(z)
        for _ in range(4):
            d = rng.standard_normal(space.dim)
            d /= float(np.sqrt((d * d).sum()))
            fd = (oracle.eval(z + h * d) - oracle.eval(z - h * d)) / (2.0 * h)
            ip = float(np.real(inner(space, g, d)))
            worst = max(worst, abs(fd - ip) / max(1.0, abs(fd), abs(ip)))
    return worst


def _normalized(space: Space, q, zs) -> tuple[np.ndarray, np.ndarray]:
    _require_real(space)
    zs = space.matrix(zs)
    p = ProbabilityVector.from_nonnegative(q)
    if len(p) != zs.shape[0]:
        raise ContractViolationError(f"{zs.shape[0]} points but {len(p)} weights")
    return p.weights, zs


def _gap(oracle: ConvexOracle, w: np.ndarray, zs: np.ndarray, mean: np.ndarray) -> float:
    return float(w @ np.array([oracle.eval(z) for z in zs]) - oracle.eval(mean))


def jensen_gap(space: Space, oracle: ConvexOracle, q, zs) -> float:
    """sum p_i F(z_i) - F(sum p_i z_i) with p = q / sum(q)."""
    w, zs = _normalized(space, q, zs)
    return _gap(oracle, w, zs, w @ zs)


def pairing_gap(space: Space, oracle: ConvexOracle, q, zs) -> float:
    """sum p_i <grad F(z_i), z_i> - <mean grad, mean z> (the gradient/point pairing)."""
    w, zs = _normalized(space, q, zs)
    grads = space.matrix([oracle.grad(z) for z in zs])
    return _pair(space, w, _Centered(space, w, grads).rows, _Centered(space, w, zs).rows)


def _verified(space: Space, encl: Enclosure | None, pts: np.ndarray, what: str):
    """``encl`` (fitted when None) and its ball report on ``pts``; a failure raises."""
    if encl is None:
        try:
            encl = _fit(space, pts)
        except DegenerateInputError:
            encl = Enclosure(space, pts[0], pts[0], allow_degenerate=True)
    else:
        _same_space(encl.space, space, what)
    report = _dual_report(encl, pts, "ball")
    if not report.holds:
        i = int(report.failing_indices()[0])
        raise HypothesisError(f"{what} fails the ball condition at index {i}", report=report)
    return encl, report


def reverse_jensen(
    space: Space,
    oracle: ConvexOracle,
    q,
    zs,
    grad_encl: Enclosure | None = None,
    z_encl: Enclosure | None = None,
) -> JensenReport:
    """Evaluate the reverse-Jensen chain for one weighted instance.

    Enclosures not supplied are fitted: the gradient enclosure from
    {grad F(z_i)} (mandatory for the chain; a one-point gradient set yields
    the degenerate all-zero chain), the z-enclosure from {z_i} (enables the
    final quarter link and the improvement ratio). Supplied enclosures are
    verified and a failure raises :class:`HypothesisError`. Each gradient is
    evaluated once.
    """
    w, zs = _normalized(space, q, zs)
    cz = _Centered(space, w, zs)
    gap = _gap(oracle, w, zs, cz.mean)
    grads = space.matrix([oracle.grad(z) for z in zs])
    pgap = _pair(space, w, _Centered(space, w, grads).rows, cz.rows)
    grad_encl, report_g = _verified(space, grad_encl, grads, "gradient enclosure")
    z_encl, report_z = _verified(space, z_encl, zs, "z-enclosure")

    dg = grad_encl.diameter
    quarter = 0.25 * dg * z_encl.diameter
    links = (
        BoundLink("0.5*diam(grad)*mad(z)", 0.5 * dg * cz.mad(), "3.4"),
        BoundLink("0.5*diam(grad)*std(z)", 0.5 * dg * math.sqrt(cz.variance()), "3.4"),
        BoundLink("0.25*diam(grad)*diam(z)", quarter, "3.9"),
    )
    improvement = links[0].value / quarter if quarter > 0.0 else None

    chain = BoundChain(
        equation="3.9",
        functional_label="jensen_gap",
        functional_value=max(gap, 0.0),
        links=links,
        hypothesis_reports=(report_g, report_z),
    )
    return JensenReport(
        gap=gap,
        pairing_gap=pgap,
        chain=chain,
        improvement_ratio=improvement,
        grad_encl=grad_encl,
        z_encl=z_encl,
    )
