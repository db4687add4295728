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
``chebyshev(ws, center)`` and ``vector_gruss(ws, center)`` evaluate those
re-centered sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import Enclosure
from .errors import ContractViolationError, DimensionMismatchError
from .space import (
    COMPLEX, REAL, ProbabilityVector, Space, _blocks, _by_columns, _distances, _pairing, _per_row, _weighted_sum, norm,
    row_norms,
)


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

    def require_ys(self) -> np.ndarray:
        if self.ys is None:
            raise ContractViolationError("this operation needs the second sequence ys")
        return self.ys

    def require_alphas(self) -> np.ndarray:
        if self.alphas is None:
            raise ContractViolationError("this operation needs the scalar sequence alphas")
        return self.alphas


class _Centered:
    """Centered view of one validated sequence, built once per chain, or of a stack of them.

    Holds the raw rows and their center (the weighted mean unless given). ``sq()``, the squared norms of
    x_i - center, are ``row_distances``' squares, and ``_pair`` and ``_gruss`` center a row block at a time,
    so none builds an (n, dim) copy. Every weighted sum over the rows is one ``_weighted_sum``.

    A stack is (K, n, dim) rows of K candidates with (K, n) or shared (n,) weights; its mean keeps the
    row axis, (K, 1, dim), so that it broadcasts against the rows. Every reduction runs per candidate,
    with the bits that candidate gives alone: a statistic of a stack is an array over the leading axis,
    of one sequence a numpy scalar.
    """

    def __init__(self, space: Space, w: np.ndarray, raw: np.ndarray, center: np.ndarray | None = None):
        self.space, self.w, self.raw = space, w, raw
        if center is None:
            center = _weighted_sum(w, raw, -2)
        self.center = center
        self._sq = None

    def sq(self) -> np.ndarray:
        if self._sq is None:
            self._sq = _per_row(lambda r: _distances(self.space, r, self.center, False), self.raw)
        return self._sq

    def mad(self):
        return _weighted_sum(self.w, np.sqrt(self.sq()), -1)

    def variance(self):
        return _weighted_sum(self.w, self.sq(), -1)


class _CenteredScalars:
    """Scalars a_i - abar (or a (K, n) stack of them), with the same two reductions, each one ``_weighted_sum``."""

    def __init__(self, w: np.ndarray, alphas: np.ndarray):
        self.w = w
        self.dev = alphas - _weighted_sum(w, alphas, -1)[..., None]

    def mad(self):
        return _weighted_sum(self.w, np.abs(self.dev), -1)

    def variance(self):
        return _weighted_sum(self.w, np.abs(self.dev) ** 2, -1)


def _pair(space: Space, w: np.ndarray, cx: _Centered, cy: _Centered):
    """sum_i w_i <x_i - cx.center, y_i - cy.center>, the differences formed a row block at a time."""
    terms = _per_row(lambda x, y: _pairing(space, x, y, cx.center, cy.center), cx.raw, cy.raw)
    return _weighted_sum(w, terms, -1)


def _gruss(ca: _CenteredScalars, cx: _Centered) -> np.ndarray:
    """sum_i w_i dev_i (x_i - cx.center), one ``_weighted_sum`` of the differences (a stack's per candidate).

    Over row blocks it adds one such sum per block, in block order: where :func:`space._by_columns` holds, one
    column of a block at a time, so that each sum reads a contiguous column.
    """
    wd, x, c = ca.w * ca.dev, cx.raw, cx.center
    blocks = _blocks(x)
    if blocks is None:
        total = _weighted_sum(wd, x - c, -2)
        return total if x.ndim == 2 else total[..., 0, :]
    by_columns, total = _by_columns(cx.space, x), None
    for lo in blocks:
        xb, wb = x[lo:lo + blocks.step], wd[lo:lo + blocks.step]
        part = (np.array([_weighted_sum(wb, xb[:, k] - c[k], -1) for k in range(x.shape[1])]) if by_columns
                else _weighted_sum(wb, xb - c, -2))
        total = part if total is None else total + part
    return total


def _xs(ws: WeightedSequence, center) -> _Centered:
    """xs about c, the weighted mean of xs when ``center`` is None."""
    return _Centered(ws.space, ws.p.weights, ws.xs, None if center is None else ws.space.vector(center))


def chebyshev(ws: WeightedSequence, center=None) -> float | complex:
    """sum_i p_i <x_i - c, y_i - mean_y> (complex on complex spaces); the same for any c (default mean_x)."""
    ys = ws.require_ys()
    return _pair(ws.space, ws.p.weights, _xs(ws, center), _Centered(ws.space, ws.p.weights, ys)).item()


def vector_gruss(ws: WeightedSequence, center=None) -> np.ndarray:
    """sum_i p_i (a_i - abar)(x_i - c) as a vector; the same for any c (default mean_x)."""
    return _gruss(_CenteredScalars(ws.p.weights, ws.require_alphas()), _xs(ws, center))


def variance(space: Space, p: ProbabilityVector, xs) -> float:
    """sum_i p_i ||x_i - mean||^2."""
    return float(_Centered(space, p.weights, _checked(p, space.matrix(xs))).variance())


def mad(space: Space, p: ProbabilityVector, xs) -> float:
    """Mean absolute deviation sum_i p_i ||x_i - mean||."""
    return float(_Centered(space, p.weights, _checked(p, space.matrix(xs))).mad())


def identity_residual_24(encl: Enclosure, ws: WeightedSequence) -> float:
    """|chebyshev - sum_i p_i <x_i - c, y_i - mean_y>| with c = enclosure center."""
    return float(abs(chebyshev(ws) - chebyshev(ws, encl.center)))


def identity_residual_210(encl: Enclosure, ws: WeightedSequence) -> float:
    """Norm of vector_gruss - sum_i p_i (a_i - abar)(x_i - c), c = enclosure center."""
    return norm(ws.space, vector_gruss(ws) - vector_gruss(ws, encl.center))


def pair_scale(ws: WeightedSequence) -> float:
    """Relative-tolerance scale max(1, sum_i p_i ||x_i|| ||y_i||)."""
    ys = ws.require_ys()
    return max(1.0, float(_weighted_sum(ws.p.weights, row_norms(ws.space, ws.xs) * row_norms(ws.space, ys), -1)))


def gruss_scale(ws: WeightedSequence) -> float:
    """Relative-tolerance scale max(1, sum_i p_i |a_i| ||x_i||)."""
    al = ws.require_alphas()
    return max(1.0, float(_weighted_sum(ws.p.weights, np.abs(al) * row_norms(ws.space, ws.xs), -1)))


def _centered_alphas(p: ProbabilityVector, alphas) -> _CenteredScalars:
    line = Space(1, COMPLEX if np.iscomplexobj(alphas) else REAL)
    return _CenteredScalars(p.weights, _checked(p, line.scalars(alphas)))


def alpha_abs_deviation(p: ProbabilityVector, alphas) -> float:
    """sum_i p_i |a_i - abar| for real or complex scalars."""
    return float(_centered_alphas(p, alphas).mad())


def alpha_variance(p: ProbabilityVector, alphas) -> float:
    """sum_i p_i |a_i - abar|^2 for real or complex scalars."""
    return float(_centered_alphas(p, alphas).variance())
