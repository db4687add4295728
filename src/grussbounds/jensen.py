"""Reverse Jensen inequality for differentiable convex functions.

For a convex ``F`` with gradient ``grad F`` on a real space, nonnegative
weights ``q`` (positive total, normalized internally) and points ``z_i``:

* the Jensen gap    sum p_i F(z_i) - F(sum p_i z_i)         (>= 0 for convex F)
* the pairing gap   sum p_i <grad F(z_i), z_i> - <mean grad, mean z>

:func:`reverse_jensen` reports both (``gap`` and ``pairing_gap``). The gap
never exceeds the pairing gap, and both are dominated by the chain built
from an enclosure (m, M) of the gradient set:

    gap <= diam(grad)/2 * mad(z) <= diam(grad)/2 * std(z)
        <= diam(grad)/4 * diam(z)          (when a z-enclosure also holds)

That chain is ``bounds._JENSEN``, evaluated on the one chain path of
:mod:`bounds` like every other chain, with the gap computed here as its input.
Gradient enclosures are fitted from the finite set {grad F(z_i)} when not
supplied. Everything here is real: complex spaces are rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _JENSEN, BoundChain, _evaluate, _same_space
from .conditions import Enclosure, fit_enclosure
from .errors import ContractViolationError, DegenerateInputError
from .functionals import _Centered, _checked, _pair
from .space import ProbabilityVector, Space, _weighted_sum, pairing


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


def diagonal_quadratic_oracle(space: Space) -> ConvexOracle:
    """F(z) = <Qz, z> for the positive diagonal Q with q_k = 1 + k/dim."""
    diag = 1.0 + np.arange(space.dim, dtype=np.float64) / space.dim
    m = _metric(space)

    def value(z: np.ndarray) -> np.ndarray:
        return (m * diag * z * z).sum(axis=-1)

    def gradient(z: np.ndarray) -> np.ndarray:
        return 2.0 * diag * z

    return ConvexOracle("diag_quadratic", value, gradient)


def _shifted_exp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row maxima of ``z``, exp(z - max) and its row sums, to the bit ``z.max(axis=-1)`` and ``.sum(axis=-1)``;
    under 8 columns, which numpy adds left to right, a column at a time, without per-row reductions."""
    cols = z.shape[-1] < 8
    zmax = functools.reduce(np.maximum, [z[..., k] for k in range(z.shape[-1])]) if cols else z.max(axis=-1)
    e = np.exp(z - zmax[..., None])
    return zmax, e, functools.reduce(np.add, [e[..., k] for k in range(e.shape[-1])]) if cols else e.sum(axis=-1)


def log_sum_exp_oracle(space: Space) -> ConvexOracle:
    """F(z) = log sum_k exp(z_k); the representer divides softmax by the metric."""
    m = _metric(space)

    def value(z: np.ndarray) -> np.ndarray:
        zmax, _, sums = _shifted_exp(z)
        # math.log, whose last bit numpy's vectorized log does not always match
        return zmax + np.fromiter(map(math.log, sums.ravel().tolist()), np.float64, sums.size).reshape(sums.shape)

    def gradient(z: np.ndarray) -> np.ndarray:
        _, e, sums = _shifted_exp(z)
        return (e / sums[..., None]) / m

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


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as a non-finite gradient or a NaN error
def gradient_check(space: Space, oracle: ConvexOracle, samples, h: float = 1e-5) -> float:
    """Max relative error of <grad, d> against central differences of eval.

    Directions are drawn from a fixed-seed generator, so the check is
    deterministic. Relative error uses max(1, |fd|, |<grad,d>|) as scale.
    """
    _require_real(space)
    if not 0.0 < h <= 1e-2:
        raise ContractViolationError(f"step h must lie in (0, 1e-2], got {h!r}")
    samples = space.matrix(samples)
    grads = _gradients(space, oracle, samples)
    d = np.random.default_rng(1754).standard_normal((samples.shape[0], 4, space.dim))
    d /= np.sqrt((d * d).sum(axis=-1, keepdims=True))
    ahead, behind = _values(oracle, samples[:, None] + h * d), _values(oracle, samples[:, None] - h * d)
    ip = pairing(space, grads[:, None, :], d)
    fd = (ahead - behind) / (2.0 * h)
    err = np.abs(fd - ip) / np.maximum(1.0, np.maximum(np.abs(fd), np.abs(ip)))
    if np.isnan(err).any():
        raise ContractViolationError(f"oracle {oracle.name!r}: the finite differences overflow double precision")
    return float(err.max())


def _values(oracle: ConvexOracle, zs: np.ndarray) -> np.ndarray:
    """F at every point of ``zs``, checked to be one value per point."""
    values = np.asarray(oracle.eval(zs), dtype=np.float64)
    if values.shape != zs.shape[:-1]:
        raise ContractViolationError(f"oracle {oracle.name!r} gave values of shape {values.shape} for points {zs.shape}")
    return values


def _gradients(space: Space, oracle: ConvexOracle, zs: np.ndarray) -> np.ndarray:
    """grad F at every point of ``zs``; the points are finite, so a non-finite gradient has overflowed."""
    grads = np.asarray(oracle.grad(zs))
    if grads.dtype.kind in "fc" and not np.isfinite(grads).all():
        raise ContractViolationError(f"oracle {oracle.name!r}: the gradients overflow double precision")
    return space.matrix(grads)


def _normalized(space: Space, q, zs) -> tuple[ProbabilityVector, np.ndarray]:
    _require_real(space)
    p = ProbabilityVector.from_nonnegative(q)
    return p, _checked(p, space.matrix(zs))


def _fitted(space: Space, encl: Enclosure | None, pts: np.ndarray, what: str) -> Enclosure:
    """``encl``, checked to share ``space``, or when None the fit to ``pts`` (a one-point enclosure if they are equal)."""
    if encl is None:
        try:
            return fit_enclosure(space, pts)  # whose ball report the chain's gate takes
        except DegenerateInputError:
            return Enclosure(space, pts[0], pts[0], allow_degenerate=True)
    _same_space(encl.space, space, what)
    return encl


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
    final quarter link and the improvement ratio). Both are in hand before the
    chain's gates verify them, the gradients' first; a failure raises
    :class:`HypothesisError`. ``eval`` runs on the points and on their mean,
    ``grad`` once on the points.
    """
    p, zs = _normalized(space, q, zs)
    w = p.weights
    cz = _Centered(space, w, zs)
    gap = float(_weighted_sum(w, _values(oracle, zs), -1) - _values(oracle, cz.center))
    grads = _gradients(space, oracle, zs)
    pgap = _pair(space, w, _Centered(space, w, grads), cz).item()
    grad_encl = _fitted(space, grad_encl, grads, "gradient enclosure")
    z_encl = _fitted(space, z_encl, zs, "z-enclosure")
    arrays = {"zs": zs, "gradients": grads, "gap": gap}
    chain = _evaluate(_JENSEN, space, p, arrays, {"grad": grad_encl, "z": z_encl}, check=True)
    quarter = chain.links[2].value
    improvement = chain.links[0].value / quarter if quarter > 0.0 else None
    return JensenReport(
        gap=gap,
        pairing_gap=pgap,
        chain=chain,
        improvement_ratio=improvement,
        grad_encl=grad_encl,
        z_encl=z_encl,
    )
