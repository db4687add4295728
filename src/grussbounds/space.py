"""Field-generic inner product algebra on finite-dimensional coordinate spaces.

A :class:`Space` fixes the dimension, the scalar field (real or complex) and an optional diagonal metric of strictly
positive weights. All operations are pure functions over immutable values.

Each kind of array input has one validator, which copies numbers (only) into the field, checks shape, nonemptiness
and finiteness, and returns it read-only (an array that nothing can write to is checked but not copied). A sequence
of more than one block is checked in the pass that copies it, a block at a time, so that it is read once:

* ``Space.vector``   one vector, shape ``(dim,)`` (enclosure endpoints, centers);
* ``Space.matrix``   a sequence of vectors, shape ``(n, dim)`` (xs, ys, zs, gradients);
* ``Space.scalars``  a sequence of scalars, shape ``(n,)`` (the alphas; a bare
  scalar is a sequence of one);
* :class:`ProbabilityVector`  the weights: flat, finite, nonnegative, summing to one.

Convention: the inner product is linear in the first argument and conjugate-linear in the second. Every norm is the
induced one. What reads only Re<., .> (norms, distances, slacks, fits) runs on a complex space's ``_real_view``.

One per-row kernel, ``_pairing``, sums metric_k (a_k - ca_k) conj(b_k - cb_k) over each row; a squared norm or
distance is the real pairing of the rows with themselves. What gives one value per row (:func:`pairing` of rows,
:func:`row_norms`, :func:`row_distances` and what builds on them) runs it over cache-sized blocks of
``max(COLUMN_ROWS, BLOCK_ELEMS // dim)`` rows into one n-length output, with the bits of one whole-array call
(one call up to one block), here or in another module through one ``_per_row`` call. Every weighted sum over the rows
(a mean, a functional, a statistic or a coefficient) is one ``_weighted_sum``: BLAS products of chunks that
it runs on one thread, every whole chunk in one stacked product, added in row order, so that a sum depends
only on its values and the fixed chunking, not on the thread count or on which functional asked for it.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, DimensionMismatchError

REAL = "real"
COMPLEX = "complex"

#: Probability weights are renormalized when |sum - 1| is below this, and
#: rejected when above it (tolerates file-format rounding, not wrong data).
PROB_SUM_TOL = 1e-9

#: Fewest rows that are summed column by column (see ``pairing``); the
#: crossover measured at 2 to 7 columns lies between 128 and 1024 rows.
COLUMN_ROWS = 512

#: Elements per row block of the per-row kernels (a block and its temporaries fit in L2).
BLOCK_ELEMS = 1 << 16

#: Most entries of one weighted BLAS product over rows (see ``_weighted_sum``). OpenBLAS runs a dot
#: product of at most 10^4 entries, and a matrix-vector product of fewer than 9216, on one thread.
BLAS_ENTRIES = 1 << 13


@dataclass(frozen=True, eq=False)
class Space:
    """Finite-dimensional real or complex coordinate space.

    ``metric`` holds per-coordinate weights of a diagonal metric; ``None``
    means the standard all-ones metric. Full Gram matrices are rejected.
    """

    dim: int
    field: str = REAL
    metric: np.ndarray | None = None
    is_complex: bool = dataclasses.field(init=False, repr=False, compare=False)
    dtype: np.dtype = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise DimensionMismatchError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if self.field not in (REAL, COMPLEX):
            raise ContractViolationError(f"field must be '{REAL}' or '{COMPLEX}', got {self.field!r}")
        if self.metric is not None:
            m = np.array(self.metric, dtype=np.float64)
            if m.shape != (self.dim,):
                raise DimensionMismatchError(
                    f"metric must be a flat vector of {self.dim} weights, got shape {m.shape}"
                )
            if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
                raise ContractViolationError("metric weights must be finite and strictly positive")
            m.flags.writeable = False
            object.__setattr__(self, "metric", m)
        object.__setattr__(self, "is_complex", self.field == COMPLEX)
        object.__setattr__(self, "dtype", np.dtype(np.complex128 if self.is_complex else np.float64))

    @functools.cached_property
    def _real(self) -> "Space":  # the space of a complex one's real view (see _real_view), made once and kept
        return Space(2 * self.dim, REAL, None if self.metric is None else np.repeat(self.metric, 2))

    def vector(self, coords) -> np.ndarray:
        """Validate coordinates as a finite vector of this space (read-only)."""
        return self._array(coords, (self.dim,), f"coordinates as a {self.field} vector",
                           f"vector must have shape ({self.dim},)", "vector entries")

    def matrix(self, rows) -> np.ndarray:
        """Validate a nonempty sequence of conforming vectors as an (n, dim) array."""
        return self._rows(rows, "vector entries")

    def _rows(self, rows, entries: str = "") -> np.ndarray:
        """:meth:`matrix` given its ``entries``; without, every check of it but finiteness, for a caller whose own
        pass over every entry shows a non-finite one (and who then raises :meth:`matrix`'s error)."""
        return self._array(rows, (None, self.dim), f"rows as {self.field} vectors",
                           f"expected shape (n, {self.dim})", entries, "sequence of vectors")

    def scalars(self, values) -> np.ndarray:
        """Validate a nonempty sequence of this space's scalars as an (n,) array.

        A bare scalar reads as a sequence of one.
        """
        return self._array(values, (None,), f"values as {self.field} scalars",
                           "expected shape (n,)", "scalars", "sequence of scalars")

    def _array(self, values, shape: tuple, what: str, expected: str, entries: str, sequence: str = "") -> np.ndarray:
        """A read-only finite copy of ``values`` (or, if :func:`_frozen`, itself) in this field, of ``shape``.

        With ``sequence`` naming the items, the leading length (``None`` in
        ``shape``) is free but must be nonzero. Without ``entries``, which names
        them in the error, the entries are not checked finite. A copy is C-ordered, whatever
        the layout of ``values``: a sequence of rows in :func:`_blocks`, or of over ``BLOCK_ELEMS``
        scalars, is copied a block at a time, each checked while in cache.
        """
        frozen = _frozen(values, self, len(shape))
        src = values if frozen else _numeric(values, self.field, what)
        got = (1,) if shape == (None,) and src.ndim == 0 else src.shape  # () reads as (1,)
        if sequence and got[:1] == (0,):
            raise DegenerateInputError(f"{sequence} must be nonempty")
        if got != (shape if shape[0] is not None else got[:1] + shape[1:]):
            raise DimensionMismatchError(f"{expected}, got {got}")
        big = not frozen and entries and sequence and src.size > BLOCK_ELEMS
        blocks = (_blocks(src) if src.ndim == 2 else range(0, src.size, BLOCK_ELEMS)) if big else None
        if blocks is None:
            a = src if frozen else np.array(src, dtype=self.dtype, order="C", ndmin=len(got))
            if entries and not _finite(a):
                raise ContractViolationError(f"{entries} must be finite")
        else:  # a safe cast keeps each entry finite or not, so then a (narrower) C-contiguous source block is checked
            a, safe = np.empty(got, self.dtype), np.can_cast(src.dtype, self.dtype) and src.flags.c_contiguous
            for lo in blocks:
                block = a[lo:lo + blocks.step]
                block[...] = part = src[lo:lo + blocks.step]
                if not _finite(part if safe else block):
                    raise ContractViolationError(f"{entries} must be finite")
        a.flags.writeable = False
        return a

    def compatible(self, other: "Space") -> bool:
        """True when the two spaces agree on dim, field and metric."""
        if self.dim != other.dim or self.field != other.field:
            return False
        if (self.metric is None) != (other.metric is None):
            return False
        return self.metric is None or bool(np.array_equal(self.metric, other.metric))


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of the C-contiguous ``a`` is finite; complex ones as real pairs (half the time on many)."""
    return bool(np.isfinite(a.view(a.real.dtype) if a.dtype.kind == "c" else a).all())


def _frozen(a, space: Space, ndim: int) -> bool:
    """Whether ``a`` is a C-contiguous ``ndim``-d array of ``space``'s dtype, read-only down its whole ``.base`` chain."""
    if type(a) is not np.ndarray or a.flags.writeable:
        return False
    ok = a.dtype == space.dtype and a.ndim == ndim and a.flags.c_contiguous
    while ok and type(a) is np.ndarray:
        ok, a = not a.flags.writeable, a.base
    return ok and a is None


def _numeric(values, field: str, what: str) -> np.ndarray:
    """``values`` as an array of ``field`` numbers; strings, bytes, bools and objects are rejected."""
    try:
        a = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise DimensionMismatchError(f"cannot interpret {what}: {exc}") from None
    if a.dtype.kind not in ("iufc" if field == COMPLEX else "iuf"):
        raise DimensionMismatchError(f"cannot interpret {what}: entries of dtype {a.dtype} are not {field} numbers")
    return a


def _weight_array(q) -> tuple[np.ndarray, float]:
    """A nonempty flat float copy of ``q`` with finite nonnegative entries, shown by one ``min`` and one sum (a
    failure reads them again, to word it), and that sum, ``inf`` where it overflows."""
    w = np.array(_numeric(q, REAL, "weights"), dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise DimensionMismatchError(f"weights must be a nonempty flat array, got shape {w.shape}")
    with np.errstate(over="ignore"):
        total = float(np.add.reduce(w))
    if not (w.min() >= 0.0 and math.isfinite(total)):  # a NaN, a negative entry, an infinite one or an overflow
        if not np.isfinite(w).all():
            raise ContractViolationError("weights must be finite")
        if (w < 0.0).any():
            raise ContractViolationError("weights must be nonnegative")
    return w, total


def _probability_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative float weights (one row of them, or a stack of rows) as :class:`ProbabilityVector`
    holds them, each divided by its sum, and which rows it accepts: those summing to one within
    ``PROB_SUM_TOL`` (so finite). A rejected row is left undivided; ``w`` is not written to.
    """
    s = np.add.reduce(w, axis=-1, keepdims=True)
    ok = np.abs(s - 1.0) <= PROB_SUM_TOL
    return w / np.where(ok, s, 1.0), ok[..., 0]


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Nonnegative weights summing to one (renormalized at construction)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        self._normalize(*_weight_array(self.weights))

    def _normalize(self, w: np.ndarray, total: float) -> None:
        """Hold the nonnegative float weights ``w``, divided in place by their sum ``total`` if it is one within
        ``PROB_SUM_TOL``."""
        if not abs(total - 1.0) <= PROB_SUM_TOL:
            raise ContractViolationError(
                f"weights must sum to 1 within {PROB_SUM_TOL:g} (got sum {total!r}); "
                "use ProbabilityVector.from_nonnegative to normalize arbitrary weights"
            )
        w /= total
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityVector":
        if n < 1:
            raise DimensionMismatchError("n must be >= 1")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_nonnegative(cls, q) -> "ProbabilityVector":
        """Normalize arbitrary nonnegative weights with positive total."""
        q, total = _weight_array(q)
        if math.isinf(total):  # finite weights whose total overflows: scale them by the largest first
            q /= q.max()
            total = float(np.add.reduce(q))
        if total <= 0.0:
            raise DegenerateInputError("total weight must be positive")
        q /= total
        p = cls.__new__(cls)
        p._normalize(q, float(np.add.reduce(q)))  # checked weights, which the constructor would copy and check again
        return p

    def __len__(self) -> int:
        return int(self.weights.size)


def _conform(space: Space, u) -> np.ndarray:
    u = np.asarray(_numeric(u, space.field, "coordinates"), dtype=space.dtype, order="C")
    if u.shape != (space.dim,):
        raise DimensionMismatchError(f"vector must have shape ({space.dim},), got {u.shape}")
    return u


def _real_view(space: Space, *arrays) -> tuple:
    """``space`` and its ``arrays``, a complex space as its real view: C^d with metric m is R^(2d) with metric
    (m_1, m_1, ..., m_d, m_d) for Re<., .>, each array the ``.view(np.float64)`` of it as C-ordered complex."""
    if not space.is_complex:
        return (space, *arrays)
    return (space._real, *[np.asarray(a, np.complex128, order="C").view(np.float64) for a in arrays])


def _by_columns(rows: np.ndarray) -> bool:
    """Whether real ``rows`` (or each of a stack of them), at least ``COLUMN_ROWS`` of them and 2 to 7 wide, sum
    column by column."""
    return rows.ndim >= 2 and rows.shape[-2] >= COLUMN_ROWS and 1 < rows.shape[-1] < 8


def _blocks(rows: np.ndarray) -> range | None:
    """The first rows of the row blocks of ``rows`` (``.step`` rows each); None unless they are (n, dim) and blocked."""
    if rows.ndim != 2 or rows.size <= BLOCK_ELEMS or len(rows) <= COLUMN_ROWS:
        return None
    return range(0, len(rows), max(COLUMN_ROWS, BLOCK_ELEMS // rows.shape[1]))


def _per_row(kernel, *arrays) -> np.ndarray:
    """``kernel(*arrays)``, one value per row of the (n, dim) ``arrays``, a row block at a time."""
    blocks = _blocks(arrays[0])
    if blocks is None:
        return kernel(*arrays)
    out = None
    for lo in blocks:
        part = kernel(*(a[lo:lo + blocks.step] for a in arrays))
        out = np.empty(len(arrays[0]), part.dtype) if out is None else out
        out[lo:lo + blocks.step] = part
    return out


def _weighted_sum(w: np.ndarray, a: np.ndarray, axis: int):
    """sum_i w_i a_i over the rows i of ``a``, its ``axis``: -1 for values (n,), -2 for vectors (n, dim), or a
    stack of either over leading axes, with (..., n) or shared (n,) weights, per candidate with its own bits (a
    stack of vectors keeps the row axis: (..., 1, dim)).

    BLAS computes it, and OpenBLAS splits a long product over its threads, so that its rounding follows the
    thread count. Over more than ``BLAS_ENTRIES`` entries the sum therefore adds, in row order, the products of
    chunks of rows with at most that many, which it runs on one thread: the whole chunks in one stacked product
    of views (each chunk read as its slice is), then the short last one; up to one chunk it is one product. Real
    weights of complex rows are cast per product, so there one takes ``BLOCK_ELEMS // 2`` weights, cast in cache.
    """
    width = a.shape[-1] if axis == -2 else 1
    if a.size <= BLAS_ENTRIES or (n := a.shape[axis]) <= (step := max(1, BLAS_ENTRIES // width)):
        if axis == -2:
            return w @ a if a.ndim == 2 else np.matmul(w[..., None, :], a)
        return w @ a if a.ndim == 1 else np.matmul(w[..., None, :], a[..., None])[..., 0, 0]
    k, rows = n // step, a if axis == -2 else a[..., None]  # (..., n, width)
    wc = w[..., :k * step].reshape(*w.shape[:-1], k, 1, step)  # splitting the row axis is a view for any strides
    rc = rows[..., :k * step, :].reshape(*rows.shape[:-2], k, step, width)
    parts = np.empty((*np.broadcast_shapes(wc.shape[:-3], rc.shape[:-3]), k, 1, width), np.result_type(w, a))
    per = k if w.dtype == a.dtype else max(1, BLOCK_ELEMS // (2 * step))
    for lo in range(0, k, per):
        np.matmul(wc[..., lo:lo + per, :, :], rc[..., lo:lo + per, :, :], out=parts[..., lo:lo + per, :, :])
    total = np.add.accumulate(parts, axis=-3)[..., -1, :, :]
    total = total[..., 0, 0] if axis == -1 else total[0] if a.ndim == 2 else total
    tail = a[..., k * step:, :] if axis == -2 else a[..., k * step:]
    return total if k * step == n else total + _weighted_sum(w[..., k * step:], tail, axis)


def pairing(space: Space, a, b):
    """sum_k metric_k * a_k * conj(b_k) over the last axis of conforming arrays.

    Two vectors give a scalar; ``(n, dim)`` rows give one value per row, a row block at a time.

    Real sums keep the rounding of ``(a * b * metric).sum(-1)`` that the sharpness search's results
    follow. Below 8 columns numpy adds that product's columns left to right from +0.0, so where
    :func:`_by_columns` holds they are summed one by one instead: the same bits, without the
    ``(n, dim)`` product. From 8 columns numpy sums pairwise; below ``COLUMN_ROWS`` rows one product is cheaper.
    Arrays of another layout are copied to C order first, so that the bits depend only on the values.
    """
    a, b = np.asarray(a, order="C"), np.asarray(b, order="C")
    return _per_row(lambda a, b: _pairing(space, a, b), a, b)


def _pairing(space: Space, a, b=None, ca=None, cb=None):
    """:func:`pairing` of one row block, or of ``a - ca`` and ``b - cb`` where centers are given: the one per-row kernel.

    Without ``b`` (on a real space) it pairs ``a - ca`` with itself, a squared distance, each difference formed once
    and squared in place. Summed by columns, each column of the differences is formed in turn, not each row broadcast
    against a short center; squares are never -0.0, so they start from their first column, not from +0.0.
    """
    m = space.metric
    if space.is_complex:  # einsum skips the complex (n, dim) product
        if ca is not None:
            a, b = a - ca, b - cb
        return np.einsum("...k,...k->...", a, np.conj(b) if m is None else np.conj(b) * m)
    if _by_columns(a) and (b is None or a.shape == b.shape):
        total, term, db = None if b is None else np.zeros(a.shape[:-1]), None, None
        for k in range(a.shape[-1]):
            if ca is None:
                term = np.multiply(a[..., k], (a if b is None else b)[..., k], out=term)
            else:
                term = np.subtract(a[..., k], ca[..., k], out=term)
                term *= term if b is None else (db := np.subtract(b[..., k], cb[..., k], out=db))
            if m is not None:
                term *= m[k]
            if total is None:
                total, term = term, None
            else:
                total += term
        return total
    if ca is None:
        prod = a * (a if b is None else b)
    elif b is None:
        prod = a - ca
        prod *= prod
    else:  # b - cb may broadcast wider than a - ca
        prod = (a - ca) * (b - cb)
    if m is not None:  # in place, unless the product is of integers
        prod = np.multiply(prod, m, out=prod if prod.dtype == m.dtype else None)
    return np.add.reduce(prod, axis=-1)  # .sum(axis=-1) without its Python wrapper


def inner(space: Space, u, v) -> float | complex:
    """Inner product sum_k metric_k * u_k * conj(v_k).

    Linear in ``u``, conjugate-linear in ``v``; returns a float on real
    spaces and a complex number on complex ones.
    """
    total = pairing(space, _conform(space, u), _conform(space, v))
    return complex(total) if space.is_complex else float(total)


def norm(space: Space, u) -> float:
    """Induced norm sqrt(Re inner(u, u)): the root of :func:`pairing`'s square, to the bit :func:`row_norms`'."""
    space, u = _real_view(space, _conform(space, u))
    return math.sqrt(_pairing(space, u))


def row_norms(space: Space, rows: np.ndarray) -> np.ndarray:
    """Norms of each row of an (n, dim) array (or of one vector), under the space metric: the roots of the real
    view's :func:`pairing` squares, summed column by column where it sums that way."""
    space, rows = _real_view(space, np.asarray(rows, dtype=space.dtype, order="C"))
    return np.sqrt(pairing(space, rows, rows))


def row_distances(space: Space, rows: np.ndarray, c) -> np.ndarray:
    """||x_i - c|| for every row x_i of ``rows``, to the bit ``row_norms(space, rows - c)``; on a complex space, of
    their real view: the roots, taken in place, of :func:`_pairing` of each row block with itself about ``c``, so
    that no ``(n, dim)`` array is built where it sums by columns."""
    space, rows, c = _real_view(space, rows, c)
    return _per_row(lambda r: np.sqrt(sq := _pairing(space, r, ca=c), out=sq), rows)
