"""Field-generic inner product algebra on finite-dimensional coordinate spaces.

A :class:`Space` fixes the dimension, the scalar field (real or complex) and
an optional diagonal metric of strictly positive weights. All operations are
pure functions over immutable values.

Each kind of array input has one validator, which copies it into the field,
checks shape, nonemptiness and finiteness, and returns it read-only:

* ``Space.vector``   one vector, shape ``(dim,)`` (enclosure endpoints, centers);
* ``Space.matrix``   a sequence of vectors, shape ``(n, dim)`` (xs, ys, zs, gradients);
* ``Space.scalars``  a sequence of scalars, shape ``(n,)`` (the alphas; a bare
  scalar is a sequence of one);
* :class:`ProbabilityVector`  the weights: flat, finite, nonnegative, summing to one.

Convention: the inner product is linear in the first argument and
conjugate-linear in the second. Every norm is the induced one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, DimensionMismatchError

REAL = "real"
COMPLEX = "complex"

#: Probability weights are renormalized when |sum - 1| is below this, and
#: rejected when above it (tolerates file-format rounding, not wrong data).
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Space:
    """Finite-dimensional real or complex coordinate space.

    ``metric`` holds per-coordinate weights of a diagonal metric; ``None``
    means the standard all-ones metric. Full Gram matrices are rejected.
    """

    dim: int
    field: str = REAL
    metric: np.ndarray | None = None

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

    @property
    def is_complex(self) -> bool:
        return self.field == COMPLEX

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self.is_complex else np.float64)

    def vector(self, coords) -> np.ndarray:
        """Validate coordinates as a finite vector of this space (read-only)."""
        return self._array(coords, (self.dim,), f"coordinates as a {self.field} vector",
                           f"vector must have shape ({self.dim},)", "vector entries")

    def matrix(self, rows) -> np.ndarray:
        """Validate a nonempty sequence of conforming vectors as an (n, dim) array."""
        return self._array(rows, (None, self.dim), f"rows as {self.field} vectors",
                           f"expected shape (n, {self.dim})", "vector entries", "sequence of vectors")

    def scalars(self, values) -> np.ndarray:
        """Validate a nonempty sequence of this space's scalars as an (n,) array.

        A bare scalar reads as a sequence of one.
        """
        return self._array(values, (None,), f"values as {self.field} scalars",
                           "expected shape (n,)", "scalars", "sequence of scalars")

    def _array(self, values, shape: tuple, what: str, expected: str, entries: str, sequence: str = "") -> np.ndarray:
        """A read-only finite copy of ``values`` in this field, of ``shape``.

        With ``sequence`` naming the items, the leading length (``None`` in
        ``shape``) is free but must be nonzero.
        """
        try:
            a = np.asarray(values)
            if a.dtype.kind == "c" and not self.is_complex:
                raise TypeError("complex values in a real space")
            a = np.array(a, dtype=self.dtype, ndmin=1 if shape == (None,) else 0)  # a bare scalar reads as (1,)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"cannot interpret {what}: {exc}") from None
        if sequence and a.shape[:1] == (0,):
            raise DegenerateInputError(f"{sequence} must be nonempty")
        if a.shape != (shape if shape[0] is not None else a.shape[:1] + shape[1:]):
            raise DimensionMismatchError(f"{expected}, got {a.shape}")
        if not np.isfinite(a).all():
            raise ContractViolationError(f"{entries} must be finite")
        a.flags.writeable = False
        return a

    def zero(self) -> np.ndarray:
        return self.vector(np.zeros(self.dim))

    def compatible(self, other: "Space") -> bool:
        """True when the two spaces agree on dim, field and metric."""
        if self.dim != other.dim or self.field != other.field:
            return False
        if (self.metric is None) != (other.metric is None):
            return False
        return self.metric is None or bool(np.array_equal(self.metric, other.metric))


def _weight_array(q) -> np.ndarray:
    """A nonempty flat float copy of ``q`` with finite nonnegative entries."""
    w = np.array(q, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise DimensionMismatchError(f"weights must be a nonempty flat array, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ContractViolationError("weights must be finite")
    if np.any(w < 0.0):
        raise ContractViolationError("weights must be nonnegative")
    return w


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Nonnegative weights summing to one (renormalized at construction)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _weight_array(self.weights)
        s = float(w.sum())
        if abs(s - 1.0) > PROB_SUM_TOL:
            raise ContractViolationError(
                f"weights must sum to 1 within {PROB_SUM_TOL:g} (got sum {s!r}); "
                "use ProbabilityVector.from_nonnegative to normalize arbitrary weights"
            )
        w = w / s
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
        q = _weight_array(q)
        total = float(q.sum())
        if total <= 0.0:
            raise DegenerateInputError("total weight must be positive")
        return cls(q / total)

    def __len__(self) -> int:
        return int(self.weights.size)

    @property
    def n(self) -> int:
        return len(self)


def _conform(space: Space, u) -> np.ndarray:
    u = np.asarray(u, dtype=space.dtype)
    if u.shape != (space.dim,):
        raise DimensionMismatchError(f"vector must have shape ({space.dim},), got {u.shape}")
    return u


def pairing(space: Space, a, b):
    """sum_k metric_k * a_k * conj(b_k) over the last axis of conforming arrays.

    Two vectors give a scalar; ``(n, dim)`` rows give one value per row.
    """
    if space.is_complex:
        # einsum skips the complex (n, dim) product; real sums keep the
        # multiply-then-sum rounding that the sharpness search's results follow
        b = np.conj(b) if space.metric is None else np.conj(b) * space.metric
        return np.einsum("...k,...k->...", a, b)
    prod = a * b
    if space.metric is not None:
        prod = prod * space.metric
    return prod.sum(axis=-1)


def inner(space: Space, u, v) -> float | complex:
    """Inner product sum_k metric_k * u_k * conj(v_k).

    Linear in ``u``, conjugate-linear in ``v``; returns a float on real
    spaces and a complex number on complex ones.
    """
    total = pairing(space, _conform(space, u), _conform(space, v))
    return complex(total) if space.is_complex else float(total)


def norm(space: Space, u) -> float:
    """Induced norm sqrt(Re inner(u, u))."""
    return float(row_norms(space, _conform(space, u)))


def row_norms(space: Space, rows: np.ndarray) -> np.ndarray:
    """Norms of each row of an (n, dim) array (or of one vector), under the space metric."""
    rows = np.asarray(rows, dtype=space.dtype)
    return np.sqrt(np.real(pairing(space, rows, rows)))


def forward_differences(xs) -> np.ndarray:
    """Consecutive differences (x_2 - x_1, ..., x_n - x_{n-1}) as an (n-1, dim) array."""
    xs = np.asarray(xs)
    if xs.ndim != 2:
        raise DimensionMismatchError(f"expected an (n, dim) array of vectors, got shape {xs.shape}")
    if xs.shape[0] < 2:
        raise DegenerateInputError("forward differences need at least two vectors")
    return np.diff(xs, axis=0)
