"""Weighted-sequence functionals and the exact re-centering identities.

The quantities every bound chain dominates:

* ``chebyshev``     sum_i p_i <x_i, y_i> - <sum_i p_i x_i, sum_i p_i y_i>
* ``vector_gruss``  sum_i p_i a_i x_i - (sum_i p_i a_i)(sum_i p_i x_i)
* ``variance``      sum_i p_i ||x_i||^2 - ||sum_i p_i x_i||^2
* ``mad``           sum_i p_i ||x_i - sum_j p_j x_j||

plus residuals of the two re-centering identities underlying the chains:
the Chebyshev functional equals sum_i p_i <x_i - c, y_i - ybar> and the
scalar-weighted functional equals sum_i p_i (a_i - abar)(x_i - c), for any
fixed vector c (the mechanism is sum_i p_i (y_i - ybar) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import Enclosure
from .errors import ContractViolationError, DimensionMismatchError, SoundnessError
from .space import ProbabilityVector, Space, inner, norm, row_norms, weighted_mean

#: Negative variance beyond this (relative) tolerance signals inconsistent input.
VARIANCE_CLAMP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedSequence:
    """A probability vector paired with equal-length sequences over one space.

    ``xs`` is mandatory; ``ys`` (a second vector sequence) and ``alphas``
    (a scalar sequence in the space's field) are optional.
    """

    space: Space
    p: ProbabilityVector
    xs: np.ndarray
    ys: np.ndarray | None = None
    alphas: np.ndarray | None = None

    def __post_init__(self) -> None:
        xs = self.space.matrix(self.xs)
        if xs.shape[0] != len(self.p):
            raise DimensionMismatchError(f"{xs.shape[0]} vectors but {len(self.p)} weights")
        object.__setattr__(self, "xs", xs)
        if self.ys is not None:
            ys = self.space.matrix(self.ys)
            if ys.shape[0] != xs.shape[0]:
                raise DimensionMismatchError(f"xs has {xs.shape[0]} entries but ys has {ys.shape[0]}")
            object.__setattr__(self, "ys", ys)
        if self.alphas is not None:
            al = np.atleast_1d(np.asarray(self.alphas, dtype=self.space.dtype))
            if al.ndim != 1 or al.shape[0] != xs.shape[0]:
                raise DimensionMismatchError(f"alphas must be {xs.shape[0]} scalars, got shape {al.shape}")
            if not np.all(np.isfinite(al)):
                raise ContractViolationError("alphas must be finite")
            al.flags.writeable = False
            object.__setattr__(self, "alphas", al)

    @property
    def n(self) -> int:
        return int(self.xs.shape[0])

    def require_ys(self) -> np.ndarray:
        if self.ys is None:
            raise ContractViolationError("this operation needs the second sequence ys")
        return self.ys

    def require_alphas(self) -> np.ndarray:
        if self.alphas is None:
            raise ContractViolationError("this operation needs the scalar sequence alphas")
        return self.alphas


def _pointwise_inners(space: Space, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    prod = xs * np.conj(ys) if space.is_complex else xs * ys
    if space.metric is not None:
        prod = prod * space.metric
    return prod.sum(axis=1)


def chebyshev(ws: WeightedSequence) -> float | complex:
    """sum_i p_i <x_i, y_i> - <mean_x, mean_y> (complex on complex spaces)."""
    ys = ws.require_ys()
    w = ws.p.weights
    per = (w * _pointwise_inners(ws.space, ws.xs, ys)).sum()
    mean_term = inner(ws.space, weighted_mean(ws.p, ws.xs), weighted_mean(ws.p, ys))
    total = per - mean_term
    return complex(total) if ws.space.is_complex else float(np.real(total))


def vector_gruss(ws: WeightedSequence) -> np.ndarray:
    """sum_i p_i a_i x_i - (sum_i p_i a_i)(sum_i p_i x_i) as a vector."""
    al = ws.require_alphas()
    w = ws.p.weights
    weighted = (w * al)[:, None] * ws.xs
    return weighted.sum(axis=0) - (w * al).sum() * (w @ ws.xs)


def chebyshev_centered(ws: WeightedSequence, center=None) -> float | complex:
    """sum_i p_i <x_i - c, y_i - mean_y>; equals ``chebyshev`` for any c.

    Defaults c to mean_x, which makes this the cancellation-free evaluation
    of the same quantity (all terms are already centered).
    """
    ys = ws.require_ys()
    c = weighted_mean(ws.p, ws.xs) if center is None else ws.space.vector(center)
    mean_y = weighted_mean(ws.p, ys)
    total = (ws.p.weights * _pointwise_inners(ws.space, ws.xs - c[None, :], ys - mean_y[None, :])).sum()
    return complex(total) if ws.space.is_complex else float(np.real(total))


def vector_gruss_centered(ws: WeightedSequence, center=None) -> np.ndarray:
    """sum_i p_i (a_i - abar)(x_i - c); equals ``vector_gruss`` for any c."""
    al = ws.require_alphas()
    c = weighted_mean(ws.p, ws.xs) if center is None else ws.space.vector(center)
    abar = (ws.p.weights * al).sum()
    return ((ws.p.weights * (al - abar))[:, None] * (ws.xs - c[None, :])).sum(axis=0)


def variance(space: Space, p: ProbabilityVector, xs) -> float:
    """sum_i p_i ||x_i||^2 - ||mean||^2, clamped at zero within rounding."""
    xs = space.matrix(xs)
    if xs.shape[0] != len(p):
        raise DimensionMismatchError(f"{xs.shape[0]} vectors but {len(p)} weights")
    second = float(p.weights @ (row_norms(space, xs) ** 2))
    mean = weighted_mean(p, xs)
    raw = second - float(np.real(inner(space, mean, mean)))
    if raw < 0.0:
        scale = max(1.0, second)
        if raw < -VARIANCE_CLAMP_TOL * scale:
            raise SoundnessError(f"variance {raw!r} negative beyond rounding tolerance", witness=xs)
        return 0.0
    return raw


def mad(space: Space, p: ProbabilityVector, xs) -> float:
    """Mean absolute deviation sum_i p_i ||x_i - mean||."""
    xs = space.matrix(xs)
    if xs.shape[0] != len(p):
        raise DimensionMismatchError(f"{xs.shape[0]} vectors but {len(p)} weights")
    mean = weighted_mean(p, xs)
    return float(p.weights @ row_norms(space, xs - mean[None, :]))


def identity_residual_24(encl: Enclosure, ws: WeightedSequence, center=None) -> float:
    """|chebyshev - sum_i p_i <x_i - c, y_i - mean_y>| with c = enclosure center.

    The identity holds for any c; pass ``center`` to recenter elsewhere.
    """
    c = encl.center if center is None else center
    return float(abs(chebyshev(ws) - chebyshev_centered(ws, center=c)))


def identity_residual_210(encl: Enclosure, ws: WeightedSequence, center=None) -> float:
    """Norm of vector_gruss - sum_i p_i (a_i - abar)(x_i - c), c = enclosure center."""
    c = encl.center if center is None else center
    return norm(ws.space, vector_gruss(ws) - vector_gruss_centered(ws, center=c))


def pair_scale(ws: WeightedSequence) -> float:
    """Relative-tolerance scale max(1, sum_i p_i ||x_i|| ||y_i||)."""
    ys = ws.require_ys()
    return max(1.0, float(ws.p.weights @ (row_norms(ws.space, ws.xs) * row_norms(ws.space, ys))))


def gruss_scale(ws: WeightedSequence) -> float:
    """Relative-tolerance scale max(1, sum_i p_i |a_i| ||x_i||)."""
    al = ws.require_alphas()
    return max(1.0, float(ws.p.weights @ (np.abs(al) * row_norms(ws.space, ws.xs))))


def alpha_abs_deviation(p: ProbabilityVector, alphas: np.ndarray) -> float:
    """sum_i p_i |a_i - abar|."""
    abar = (p.weights * alphas).sum()
    return float((p.weights * np.abs(alphas - abar)).sum())


def alpha_variance(p: ProbabilityVector, alphas: np.ndarray) -> float:
    """sum_i p_i |a_i|^2 - |abar|^2, clamped at zero within rounding."""
    second = float((p.weights * np.abs(alphas) ** 2).sum())
    raw = second - abs((p.weights * alphas).sum()) ** 2
    if raw < 0.0:
        scale = max(1.0, second)
        if raw < -VARIANCE_CLAMP_TOL * scale:
            raise SoundnessError(f"scalar variance {raw!r} negative beyond rounding tolerance", witness=alphas)
        return 0.0
    return raw
