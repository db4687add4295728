"""Field-generic inner product algebra on finite-dimensional coordinate spaces.

A :class:`Space` fixes the dimension, the scalar field (real or complex) and
an optional diagonal metric of strictly positive weights. Vectors are plain
numpy arrays validated against their space; sequences of vectors are
``(n, dim)`` arrays. All operations are pure functions over immutable values.

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

    def scalar(self, value) -> float | complex:
        """Validate a scalar of this space's field and coerce it to float/complex."""
        z = complex(value)
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise ContractViolationError("scalars must be finite")
        if not self.is_complex:
            if z.imag != 0.0:
                raise ContractViolationError("complex scalar supplied to a real space")
            return z.real
        return z

    def vector(self, coords) -> np.ndarray:
        """Validate coordinates as a finite vector of this space (read-only)."""
        try:
            v = np.array(coords, dtype=self.dtype)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"cannot interpret coordinates as a {self.field} vector: {exc}") from None
        if v.shape != (self.dim,):
            raise DimensionMismatchError(f"vector must have shape ({self.dim},), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ContractViolationError("vector entries must be finite")
        v.flags.writeable = False
        return v

    def matrix(self, rows) -> np.ndarray:
        """Validate a nonempty sequence of conforming vectors as an (n, dim) array."""
        try:
            m = np.array(rows, dtype=self.dtype)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"cannot interpret rows as {self.field} vectors: {exc}") from None
        if m.ndim == 1 and m.size == 0:
            raise DegenerateInputError("sequence of vectors must be nonempty")
        if m.ndim != 2 or m.shape[1] != self.dim:
            raise DimensionMismatchError(f"expected shape (n, {self.dim}), got {m.shape}")
        if m.shape[0] < 1:
            raise DegenerateInputError("sequence of vectors must be nonempty")
        if not np.all(np.isfinite(m)):
            raise ContractViolationError("vector entries must be finite")
        m.flags.writeable = False
        return m

    def zero(self) -> np.ndarray:
        return self.vector(np.zeros(self.dim))

    def compatible(self, other: "Space") -> bool:
        """True when the two spaces agree on dim, field and metric."""
        if self.dim != other.dim or self.field != other.field:
            return False
        if (self.metric is None) != (other.metric is None):
            return False
        return self.metric is None or bool(np.array_equal(self.metric, other.metric))


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Nonnegative weights summing to one (renormalized at construction)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise DimensionMismatchError(f"weights must be a nonempty flat array, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ContractViolationError("weights must be finite")
        if np.any(w < 0.0):
            raise ContractViolationError("weights must be nonnegative")
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
        q = np.array(q, dtype=np.float64)
        if q.ndim != 1 or q.size < 1:
            raise DimensionMismatchError(f"weights must be a nonempty flat array, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ContractViolationError("weights must be finite")
        if np.any(q < 0.0):
            raise ContractViolationError("weights must be nonnegative")
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


def weighted_mean(p: ProbabilityVector, xs) -> np.ndarray:
    """Convex combination sum_i p_i x_i of the rows of ``xs``."""
    xs = np.asarray(xs)
    if xs.ndim != 2:
        raise DimensionMismatchError(f"expected an (n, dim) array of vectors, got shape {xs.shape}")
    if xs.shape[0] != len(p):
        raise DimensionMismatchError(f"{xs.shape[0]} vectors but {len(p)} weights")
    return p.weights @ xs


def forward_differences(xs) -> np.ndarray:
    """Consecutive differences (x_2 - x_1, ..., x_n - x_{n-1}) as an (n-1, dim) array."""
    xs = np.asarray(xs)
    if xs.ndim != 2:
        raise DimensionMismatchError(f"expected an (n, dim) array of vectors, got shape {xs.shape}")
    if xs.shape[0] < 2:
        raise DegenerateInputError("forward differences need at least two vectors")
    return np.diff(xs, axis=0)
