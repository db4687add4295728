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
    x_i - center, are ``row_distances``' squares (on complex spaces kept as the real view of a complex
    array, as pairing gave them: BLAS sums a strided view in another order), and ``_pair`` and ``_gruss``
    center a row block at a time, so none builds an (n, dim) copy (``_gruss`` does at a width of 1).

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
            sq = _distances(self.space, self.raw, self.center, False)
            self._sq = sq.astype(np.complex128).real if self.space.is_complex else sq
        return self._sq

    def mad(self):
        return _weighted_sum(self.w, np.sqrt(self.sq()), -1)

    def variance(self):
        return _weighted_sum(self.w, self.sq(), -1)


class _CenteredScalars:
    """Scalars a_i - abar (or a (K, n) stack of them), with the same two reductions; like ``_pair``
    and ``_gruss`` it sums as (w * terms).sum() (``np.add.reduce``, without the method's Python wrapper),
    the rounding the sharpness search's trajectories follow."""

    def __init__(self, w: np.ndarray, alphas: np.ndarray):
        self.w = w
        self.dev = alphas - np.add.reduce(w * alphas, axis=-1, keepdims=True)

    def mad(self):
        return np.add.reduce(self.w * np.abs(self.dev), axis=-1)

    def variance(self):
        return np.add.reduce(self.w * np.abs(self.dev) ** 2, axis=-1)


def _pair(space: Space, w: np.ndarray, cx: _Centered, cy: _Centered):
    """sum_i w_i <x_i - cx.center, y_i - cy.center>, the differences formed a row block at a time."""
    terms = _per_row(lambda x, y: _pairing(space, x, y, cx.center, cy.center), cx.raw, cy.raw)
    return np.add.reduce(w * terms, axis=-1)


def _gruss(ca: _CenteredScalars, cx: _Centered) -> np.ndarray:
    """sum_i w_i dev_i (x_i - cx.center), with the bits of the whole-array column sums.

    numpy sums the row axis of an (m, dim >= 2) array row after row from +0.0, so over row blocks each
    column carries its running sum into its block: where :func:`space._by_columns` holds, one column of a
    block at a time, its terms summed in order by ``np.add.accumulate`` from the running sum added to the
    first; wider, each block's terms go to rows 1... of one buffer whose row 0 carries the running sums.
    A width of 1 is summed pairwise and stays whole, as does a stack.
    """
    wd = ca.w * ca.dev
    blocks = _blocks(cx.raw) if cx.raw.shape[-1] > 1 else None
    if blocks is None:
        return (wd[..., None] * (cx.raw - cx.center)).sum(axis=-2)
    dtype = np.result_type(wd, cx.raw)
    if _by_columns(cx.space, cx.raw):
        total = np.zeros(cx.raw.shape[1], dtype)
        for lo in blocks:
            x, w = cx.raw[lo:lo + blocks.step], wd[lo:lo + blocks.step]
            for k in range(x.shape[1]):
                terms = np.multiply(w, np.subtract(x[:, k], cx.center[k]), dtype=dtype)
                terms[0] += total[k]
                total[k] = np.add.accumulate(terms, out=terms)[-1]
        return total
    buf, total = np.empty((blocks.step + 1, cx.raw.shape[1]), dtype), None
    for lo in blocks:
        x = cx.raw[lo:lo + blocks.step]
        terms = np.subtract(x, cx.center, out=buf[1:len(x) + 1])
        np.multiply(wd[lo:lo + blocks.step, None], terms, out=terms)
        if total is None:
            total = terms.sum(axis=0)
        else:
            buf[0] = total
            total = buf[:len(x) + 1].sum(axis=0)
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
