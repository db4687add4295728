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
from .functionals import _Centered, _checked, _pair
from .space import ProbabilityVector, Space, pairing


@dataclass(frozen=True, eq=False)
class ConvexOracle:
    """Evaluation and gradient of a convex function, over the last axis of arrays.

    ``eval`` maps ``(..., dim)`` points to ``(...)`` values and ``grad`` to
    ``(..., dim)`` gradient representers with respect to the space's inner
    product, so one call covers a whole sequence. Both must be pure.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
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

    def value(z: np.ndarray) -> np.ndarray:
        return pairing(space, z, z)

    def gradient(z: np.ndarray) -> np.ndarray:
        return 2.0 * z

    return ConvexOracle("squared_norm", value, gradient)


def diagonal_quadratic_oracle(space: Space, diag=None) -> ConvexOracle:
    """F(z) = <Qz, z> for a positive diagonal Q (default q_k = 1 + k/dim)."""
    if diag is None:
        diag = 1.0 + np.arange(space.dim, dtype=np.float64) / space.dim
    diag = np.asarray(diag, dtype=np.float64)
    if diag.shape != (space.dim,) or np.any(diag <= 0.0):
        raise ContractViolationError("diag must be a strictly positive vector of length dim")
    m = _metric(space)

    def value(z: np.ndarray) -> np.ndarray:
        return (m * diag * z * z).sum(axis=-1)

    def gradient(z: np.ndarray) -> np.ndarray:
        return 2.0 * diag * z

    return ConvexOracle("diag_quadratic", value, gradient)


def log_sum_exp_oracle(space: Space) -> ConvexOracle:
    """F(z) = log sum_k exp(z_k); the representer divides softmax by the metric."""
    m = _metric(space)

    def value(z: np.ndarray) -> np.ndarray:
        zmax = z.max(axis=-1)
        sums = np.exp(z - zmax[..., None]).sum(axis=-1)
        # math.log, whose last bit numpy's vectorized log does not always match
        return zmax + np.reshape(list(map(math.log, sums.ravel().tolist())), sums.shape)

    def gradient(z: np.ndarray) -> np.ndarray:
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return (e / e.sum(axis=-1, keepdims=True)) / m

    return ConvexOracle("log_sum_exp", value, gradient)


def norm_fourth_oracle(space: Space) -> ConvexOracle:
    """F(z) = ||z||^4 with gradient 4 ||z||^2 z."""

    def value(z: np.ndarray) -> np.ndarray:
        # float_power squares with the C library's pow, as float ** 2 does
        return np.float_power(pairing(space, z, z), 2)

    def gradient(z: np.ndarray) -> np.ndarray:
        return (4.0 * pairing(space, z, z))[..., None] * z

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
    grads = space.matrix(oracle.grad(samples))
    d = np.random.default_rng(1754).standard_normal((samples.shape[0], 4, space.dim))
    d /= np.sqrt((d * d).sum(axis=-1, keepdims=True))
    ahead, behind = _values(oracle, samples[:, None] + h * d), _values(oracle, samples[:, None] - h * d)
    ip = pairing(space, grads[:, None, :], d)
    with np.errstate(invalid="ignore"):  # an overflowing eval gives inf - inf
        fd = (ahead - behind) / (2.0 * h)
        err = np.abs(fd - ip) / np.maximum(1.0, np.maximum(np.abs(fd), np.abs(ip)))
    return float(np.fmax.reduce(err, axis=None, initial=0.0))  # skips NaN, as a running max() does


def _values(oracle: ConvexOracle, zs: np.ndarray) -> np.ndarray:
    """F at every point of ``zs``, checked to be one value per point."""
    values = np.asarray(oracle.eval(zs), dtype=np.float64)
    if values.shape != zs.shape[:-1]:
        raise ContractViolationError(f"oracle {oracle.name!r} gave values of shape {values.shape} for points {zs.shape}")
    return values


def _normalized(space: Space, q, zs) -> tuple[np.ndarray, np.ndarray]:
    _require_real(space)
    p = ProbabilityVector.from_nonnegative(q)
    return p.weights, _checked(p, space.matrix(zs))


def _gap(oracle: ConvexOracle, w: np.ndarray, zs: np.ndarray, mean: np.ndarray) -> float:
    return float(w @ _values(oracle, zs) - _values(oracle, mean))


def jensen_gap(space: Space, oracle: ConvexOracle, q, zs) -> float:
    """sum p_i F(z_i) - F(sum p_i z_i) with p = q / sum(q)."""
    w, zs = _normalized(space, q, zs)
    return _gap(oracle, w, zs, w @ zs)


def pairing_gap(space: Space, oracle: ConvexOracle, q, zs) -> float:
    """sum p_i <grad F(z_i), z_i> - <mean grad, mean z> (the gradient/point pairing)."""
    w, zs = _normalized(space, q, zs)
    grads = space.matrix(oracle.grad(zs))
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
    verified and a failure raises :class:`HypothesisError`. ``eval`` runs on
    the points and on their mean, ``grad`` once on the points.
    """
    w, zs = _normalized(space, q, zs)
    cz = _Centered(space, w, zs)
    gap = _gap(oracle, w, zs, cz.mean)
    grads = space.matrix(oracle.grad(zs))
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
