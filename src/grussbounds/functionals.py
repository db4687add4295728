"""Weighted-sequence functionals and the exact re-centering identities.

The quantities every bound chain dominates, each a weighted sum over the
centered rows x_i - xbar (xbar = sum_j p_j x_j), so no raw second-moment
difference cancels:

* ``chebyshev``     sum_i p_i <x_i - xbar, y_i - ybar> = sum_i p_i <x_i, y_i> - <xbar, ybar>
* ``vector_gruss``  sum_i p_i (a_i - abar)(x_i - xbar) = sum_i p_i a_i x_i - abar xbar
* ``variance``      sum_i p_i ||x_i - xbar||^2  (nonnegative by construction)
* ``mad``           sum_i p_i ||x_i - xbar||

plus residuals of the two re-centering identities underlying the chains:
the Chebyshev functional equals sum_i p_i <x_i - c, y_i - ybar> and the
scalar-weighted functional equals sum_i p_i (a_i - abar)(x_i - c), for any
fixed vector c (the mechanism is sum_i p_i (y_i - ybar) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conditions import Enclosure
from .errors import ContractViolationError, DimensionMismatchError
from .space import COMPLEX, REAL, ProbabilityVector, Space, norm, pairing, row_norms


def _checked(p: ProbabilityVector, a: np.ndarray) -> np.ndarray:
    """Validated vectors or scalars ``a``, checked to have one entry per weight."""
    if a.shape[0] != len(p):
        raise DimensionMismatchError(f"{a.shape[0]} {'vectors' if a.ndim == 2 else 'scalars'} but {len(p)} weights")
    return a


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
        object.__setattr__(self, "xs", _checked(self.p, self.space.matrix(self.xs)))
        if self.ys is not None:
            object.__setattr__(self, "ys", _checked(self.p, self.space.matrix(self.ys)))
        if self.alphas is not None:
            object.__setattr__(self, "alphas", _checked(self.p, self.space.scalars(self.alphas)))

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


class _Centered:
    """Centered view of one validated sequence, built once per chain.

    Holds the weighted mean, the centered rows and their squared norms.
    """

    def __init__(self, space: Space, w: np.ndarray, rows: np.ndarray):
        self.space = space
        self.w = w
        self.mean = w @ rows
        self.rows = rows - self.mean

    @cached_property
    def sq(self) -> np.ndarray:
        return np.real(pairing(self.space, self.rows, self.rows))

    def mad(self) -> float:
        return float(self.w @ np.sqrt(self.sq))

    def variance(self) -> float:
        return float(self.w @ self.sq)


class _CenteredScalars:
    """Scalars a_i - abar, with the same two reductions; like ``_pair`` and ``_gruss`` it sums
    as (w * terms).sum(), the rounding the sharpness search's trajectories follow."""

    def __init__(self, w: np.ndarray, alphas: np.ndarray):
        self.w = w
        self.dev = alphas - (w * alphas).sum()

    def mad(self) -> float:
        return float((self.w * np.abs(self.dev)).sum())

    def variance(self) -> float:
        return float((self.w * np.abs(self.dev) ** 2).sum())


def _pair(space: Space, w: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> float | complex:
    total = (w * pairing(space, cx, cy)).sum()
    return complex(total) if space.is_complex else float(np.real(total))


def _gruss(ca: _CenteredScalars, cx: np.ndarray) -> np.ndarray:
    return ((ca.w * ca.dev)[:, None] * cx).sum(axis=0)


def chebyshev(ws: WeightedSequence) -> float | complex:
    """sum_i p_i <x_i - mean_x, y_i - mean_y> (complex on complex spaces)."""
    return chebyshev_centered(ws)


def vector_gruss(ws: WeightedSequence) -> np.ndarray:
    """sum_i p_i (a_i - abar)(x_i - mean_x) as a vector."""
    return vector_gruss_centered(ws)


def chebyshev_centered(ws: WeightedSequence, center=None) -> float | complex:
    """sum_i p_i <x_i - c, y_i - mean_y>; equals ``chebyshev`` for any c (default mean_x)."""
    ys = ws.require_ys()
    w = ws.p.weights
    cx = _Centered(ws.space, w, ws.xs).rows if center is None else ws.xs - ws.space.vector(center)
    return _pair(ws.space, w, cx, _Centered(ws.space, w, ys).rows)


def vector_gruss_centered(ws: WeightedSequence, center=None) -> np.ndarray:
    """sum_i p_i (a_i - abar)(x_i - c); equals ``vector_gruss`` for any c (default mean_x)."""
    ca = _CenteredScalars(ws.p.weights, ws.require_alphas())
    cx = _Centered(ws.space, ws.p.weights, ws.xs).rows if center is None else ws.xs - ws.space.vector(center)
    return _gruss(ca, cx)


def variance(space: Space, p: ProbabilityVector, xs) -> float:
    """sum_i p_i ||x_i - mean||^2."""
    return _Centered(space, p.weights, _checked(p, space.matrix(xs))).variance()


def mad(space: Space, p: ProbabilityVector, xs) -> float:
    """Mean absolute deviation sum_i p_i ||x_i - mean||."""
    return _Centered(space, p.weights, _checked(p, space.matrix(xs))).mad()


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


def _centered_alphas(p: ProbabilityVector, alphas) -> _CenteredScalars:
    line = Space(1, COMPLEX if np.iscomplexobj(alphas) else REAL)
    return _CenteredScalars(p.weights, _checked(p, line.scalars(alphas)))


def alpha_abs_deviation(p: ProbabilityVector, alphas) -> float:
    """sum_i p_i |a_i - abar| for real or complex scalars."""
    return _centered_alphas(p, alphas).mad()


def alpha_variance(p: ProbabilityVector, alphas) -> float:
    """sum_i p_i |a_i - abar|^2 for real or complex scalars."""
    return _centered_alphas(p, alphas).variance()
