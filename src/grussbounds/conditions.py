"""Ball/box hypothesis checks for enclosures, and enclosure fitting.

An :class:`Enclosure` is a pair of antipodal vectors ``(lo, hi)``. For each
point ``v`` the two per-point conditions

    box :  Re<hi - v, v - lo> >= 0
    ball:  ||v - (lo + hi)/2|| <= ||hi - lo|| / 2

are equivalent; in fact the box slack always equals
``radius**2 - ||v - center||**2``. Each check computes only its own form's
slack; ``TestConditionEquivalence`` and acceptance criterion 2 test the
identity by comparing :func:`check_box` with that difference computed apart.

Verdicts use a dead zone of ``COND_TOL`` relative to the enclosure diameter
(diameter squared for the box form, whose slack is quadratic in lengths), so
boundary points pass deterministically.
"""

from __future__ import annotations

import functools
import math
import struct
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateInputError,
    EnclosureFitError,
)
from .space import COMPLEX, Space, _blocks, _pairing, _per_row, norm, row_distances

#: Relative dead-zone width for condition verdicts.
COND_TOL = 1e-10

#: Hard cap on the post-fit inflation factor of fit_enclosure.
MAX_INFLATION = 1.5

#: Cap on the Ritter expansion passes of fit_enclosure.
MAX_SWEEPS = 200

#: Scalar discs kept by ``_disc`` (a chain given the same disc on every call builds it once).
DISC_CACHE_SIZE = 64


@dataclass(frozen=True, eq=False)
class Enclosure:
    """Antipodal pair (lo, hi) of vectors with derived center/radius/diameter.

    ``lo == hi`` is rejected unless ``allow_degenerate`` is set; a degenerate
    enclosure makes every bound trivially zero, so callers must opt in.
    """

    space: Space
    lo: np.ndarray
    hi: np.ndarray
    allow_degenerate: bool = False
    diameter: float = field(init=False)
    center: np.ndarray = field(init=False)
    _fitted: tuple = field(default=(lambda: None, None), init=False, repr=False, compare=False)  # a fit's (rows ref, least slack)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", self.space.vector(self.lo))
        object.__setattr__(self, "hi", self.space.vector(self.hi))
        with np.errstate(over="ignore", invalid="ignore"):
            d = norm(self.space, self.hi - self.lo)
            center = (self.lo + self.hi) / 2.0
        if not math.isfinite(d * d):  # the box verdicts scale by the squared diameter
            raise ContractViolationError("enclosure diameter overflows double precision")
        if d == 0.0 and not self.allow_degenerate:
            raise DegenerateInputError("degenerate enclosure: lo == hi")
        center.flags.writeable = False
        object.__setattr__(self, "diameter", d)
        object.__setattr__(self, "center", center)

    def __getstate__(self) -> dict:  # a fit's weak reference to its rows does not pickle; a copy measures again
        return {k: v for k, v in vars(self).items() if k != "_fitted"}

    @property
    def radius(self) -> float:
        return self.diameter / 2.0


class ConditionReport:
    """Per-point slacks and verdicts of one condition form; :func:`_report` builds it.

    ``kind`` is "box", "ball" or "disc" (the ball form on the complex line).
    ``scale``, the dead-zone normalizer, is diameter squared for the box form
    and diameter for the ball form. ``holds`` (``least >= -COND_TOL * scale``,
    which is ``verdicts.all()``, a NaN slack failing both), :meth:`min_slack`
    and :meth:`failing_indices` answer from the least slack; ``slacks`` and
    ``verdicts`` (``slacks >= -COND_TOL * scale``) are read when first asked
    for, and a report given ``rows`` (an enclosure and its rows) measures its
    slacks then. The ``box_*`` or ``ball_*`` names read the fields on reports
    of their own form only.
    """

    def __init__(self, kind: str, scale: float, least: float, size: int, slacks=None, rows=None):
        self.kind, self.scale, self.holds = kind, scale, least >= -COND_TOL * scale
        self._least, self._size, self._rows = least, size, rows
        if slacks is not None:
            self.slacks = slacks

    def __getattr__(self, name: str):
        if name == "slacks":
            self.slacks = _slacks(*self._rows, self.kind)
            return self.slacks
        if name == "verdicts":
            self.verdicts = self.slacks >= -COND_TOL * self.scale
            return self.verdicts
        form, _, attr = name.partition("_")
        kind = vars(self).get("kind")
        if attr in ("slacks", "verdicts", "scale") and form == ("box" if kind == "box" else "ball"):
            return getattr(self, attr)
        raise AttributeError(f"{kind} condition report has no attribute {name!r}")

    def __repr__(self) -> str:
        return (f"ConditionReport(kind={self.kind!r}, scale={self.scale!r}, holds={self.holds!r}, "
                f"min_slack={self._least!r}, size={self._size!r})")

    def failing_indices(self) -> np.ndarray:
        return np.empty(0, np.intp) if self.holds else np.flatnonzero(~self.verdicts)

    def min_slack(self) -> float:
        return self._least

    def __len__(self) -> int:
        return self._size


def _report(encl: Enclosure, xs: np.ndarray, kind: str) -> ConditionReport:
    """The ``kind`` condition on every row of validated ``xs``.

    On the very array ``encl`` was fitted to, the ball report takes the fit's least slack and measures
    nothing until its slacks are read; every other report measures them now, under the caller's
    ``np.errstate``.
    """
    scale = encl.diameter * encl.diameter if kind == "box" else encl.diameter
    rows, least = encl._fitted
    if kind == "ball" and rows() is xs:
        return ConditionReport(kind, scale, least, len(xs), rows=(encl, xs))
    slacks = _slacks(encl, xs, kind)
    return ConditionReport(kind, scale, float(slacks.min()), slacks.size, slacks=slacks)


def _slacks(encl: Enclosure, xs: np.ndarray, kind: str) -> np.ndarray:
    """The ``kind`` slacks of every row of validated ``xs``; only that form's are computed."""
    if kind == "box":  # Re<hi - x_i, x_i - lo>, a row block at a time
        return _per_row(lambda x: np.real(_pairing(encl.space, encl.hi - x, x - encl.lo)), xs).astype(np.float64)
    return encl.radius - row_distances(encl.space, xs, encl.center)


def check_box(encl: Enclosure, xs) -> ConditionReport:
    """Check Re<hi - x_i, x_i - lo> >= 0 for every point."""
    return _report(encl, encl.space.matrix(xs), "box")


def check_ball(encl: Enclosure, xs) -> ConditionReport:
    """Check ||x_i - center|| <= radius for every point (the fit's report, for the array it was fitted to)."""
    return _report(encl, encl.space.matrix(xs), "ball")


def _disc(a, A) -> Enclosure:
    """The scalar disc with antipodes a, A as an enclosure on the complex line.

    Discs with float or complex antipodes are kept, the last ``DISC_CACHE_SIZE`` used, on the bits of
    the two complex numbers (so -0.0 and 0.0 are different antipodes); an enclosure is immutable, so
    its callers share it. An invalid disc is never kept: it raises on every call. The cache serves library
    calls given the same antipodes call after call; a file's disc is built once, at parse, and a fit needs none.
    """
    if isinstance(a, (float, complex)) and isinstance(A, (float, complex)):
        a, A = complex(a), complex(A)
        return _kept_disc(struct.pack("<4d", a.real, a.imag, A.real, A.imag))
    return _new_disc(a, A)


@functools.lru_cache(maxsize=DISC_CACHE_SIZE)
def _kept_disc(bits: bytes) -> Enclosure:
    ar, ai, hr, hi = struct.unpack("<4d", bits)
    return _new_disc(complex(ar, ai), complex(hr, hi))


def _new_disc(a, A) -> Enclosure:
    if complex(a) == complex(A):
        raise DegenerateInputError("degenerate disc: a == A")
    return Enclosure(Space(1, COMPLEX), [a], [A])  # which checks that both are finite


def check_scalar_disc(a, A, alphas) -> ConditionReport:
    """Check |alpha_i - (a + A)/2| <= |A - a|/2 for scalars in the disc with antipodes a, A.

    For real ``a < A`` this is membership in the interval [a, A].
    """
    disc = _disc(a, A)
    return _report(disc, disc.space.scalars(alphas)[:, None], "disc")


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as a non-finite radius
def fit_enclosure(space: Space, xs) -> Enclosure:
    """Fit an enclosure whose ball condition holds for every input point.

    Seeds a ball on the farthest-point pair, runs Ritter expansion passes
    (at most ``MAX_SWEEPS``; they stop at the first fixed point, a ball that
    recurs after one pass or a cycle of them, with the ball the cap would end
    on, since every later pass only repeats: see :func:`_ritter`), tightens
    the radius to the exact maximal distance, and returns antipodes along the
    seed-pair direction.

    The result is validated with the ball condition and inflated about its
    center by the minimal factor needed to cover all points, which absorbs
    the rounding of the antipode construction; a required factor above
    ``MAX_INFLATION`` raises ``EnclosureFitError``. Both take the farthest
    distance from the center, which ``_fitted`` keeps as the least slack of the
    ball report on the rows (which it refers to, weakly), so that :func:`_report`
    measures nothing for that report until its slacks are read.

    Each pass finds the farthest row from a center with :func:`_farthest`: two seed
    passes, one per sweep, and one or, after an inflation, two for the report (the
    sweep that stops the expansion gives the tight radius). Only the seed passes
    measure every row. On rows of more than one block every later pass measures the
    rows that can still be farthest from its center, bounded by the distances of the
    last full pass (the first seed pass's, from ``xs[0]``, to begin with), or all of
    them when over a quarter can; so a fit of well-spread rows makes about two full passes.
    """
    xs = space.matrix(xs)
    i1, dmax, anchor = _farthest(space, xs, xs[0], 0, None)
    if dmax == 0.0:
        raise DegenerateInputError("cannot fit an enclosure to identical points")
    i2, dmax = _farthest(space, xs, xs[i1], 0, None)[:2]  # the first pass's distances stay the anchor
    center, radius, far, anchor = _ritter(space, xs, (xs[i1] + xs[i2]) / 2.0, dmax / 2.0, i2, anchor)
    u = xs[i2] - xs[i1]
    d = norm(space, u)
    if not (math.isfinite(radius) and math.isfinite(d)):  # the seed pair's distance can overflow alone
        raise ContractViolationError("cannot fit an enclosure: the distances overflow double precision")
    u = u / d
    # canonical sign/phase: make the first nonzero component positive real
    k = int((u != 0.0).argmax())
    if space.is_complex:
        pivot = u[k]
        u = u * (np.conj(pivot) / abs(pivot))
    elif u.item(k) < 0.0:
        u = -u  # u * sign(pivot), to the bit

    encl = Enclosure(space, _read_only(center - radius * u), _read_only(center + radius * u))
    far, dmax, anchor = _farthest(space, xs, encl.center, far, anchor)
    factor = dmax / encl.radius
    if factor > MAX_INFLATION:
        raise EnclosureFitError(f"enclosure needs inflation by {factor:.6g} > {MAX_INFLATION}")
    if factor > 1.0:
        c = encl.center
        encl = Enclosure(space, _read_only(c + (encl.lo - c) * factor), _read_only(c + (encl.hi - c) * factor))
        far, dmax, anchor = _farthest(space, xs, encl.center, far, anchor)
    least = encl.radius - dmax
    if not least >= -COND_TOL * encl.diameter:  # the ball report's verdict
        raise EnclosureFitError("inflated enclosure still fails the ball condition")
    object.__setattr__(encl, "_fitted", (weakref.ref(xs), least))  # the rows may be freed with their owner
    return encl


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, a fresh array, made read-only, so that :meth:`Space.vector` checks it without a copy."""
    a.flags.writeable = False
    return a


#: Relative widening of the pruned sweeps' triangle-inequality test, far above the distances' rounding.
_PRUNE_MARGIN = 1e-9


def _ritter(space: Space, xs: np.ndarray, center: np.ndarray, radius: float, far: int, anchor):
    """Ritter expansion sweeps from the ball (center, radius): the final center, its farthest distance
    and row, and the anchor of the last sweep.

    Each sweep finds the row farthest from the center (the first of equals) and, while it lies
    outside, moves the ball to cover it. ``far`` is a row far from the first center (the seed pair's
    far end) and ``anchor`` the last full pass, as :func:`_farthest` takes them.

    A sweep depends only on the ball it starts from, so once a ball recurs (the same radius and the
    same bytes of the center: a step that only turns -0.0 into +0.0 is a move), the sweeps cycle
    through the balls since its first visit until ``MAX_SWEEPS``. They stop at the first recurrence,
    a fixed point of one sweep or of several (two points often swap the center between two
    neighbouring floats), and return the ball the cap would end on with the farthest distance and
    row its sweep measured, which is what the cap's final pass measures.
    """
    seen, balls = {}, []  # sweep index of each ball; (center, farthest distance, farthest row) of each sweep
    for i in range(MAX_SWEEPS):
        first = seen.setdefault((center.tobytes(), radius), i)
        if first < i:
            return balls[first + (MAX_SWEEPS - first) % (i - first)] + (anchor,)
        far, dmax, anchor = _farthest(space, xs, center, far, anchor)
        if not dmax > radius:  # NaN after an overflow stops too
            return center, dmax, far, anchor
        balls.append((center, dmax, far))
        new_radius = (radius + dmax) / 2.0
        center = center + (xs[far] - center) * ((dmax - new_radius) / dmax)
        radius = new_radius
    far, dmax, anchor = _farthest(space, xs, center, far, anchor)
    return center, dmax, far, anchor


def _farthest(space: Space, xs: np.ndarray, center: np.ndarray, far: int, anchor) -> tuple[int, float, tuple | None]:
    """The row farthest from ``center`` (the first of equals), its distance, and the anchor after this pass.

    ``anchor`` is (center, distances of every row) of the last full pass, or None. With one, only
    :func:`_sweep_rows` are measured, with the same result; without one, or when it falls back, every
    row is, and on rows of more than one block with a finite farthest distance that pass is the anchor.
    """
    rows = None if anchor is None else _sweep_rows(space, xs, center, far, *anchor)
    if rows is None:
        dists = row_distances(space, xs, center)
        far = int(dists.argmax())
        dmax = float(dists[far])
        return far, dmax, (center, dists) if _blocks(xs) is not None and math.isfinite(dmax) else None
    dists = row_distances(space, xs[rows], center)
    j = int(dists.argmax())
    return int(rows[j]), float(dists[j]), anchor


def _sweep_rows(space: Space, xs: np.ndarray, center: np.ndarray, far: int, c0: np.ndarray, d0: np.ndarray):
    """The rows that can be farthest from ``center``, ascending, or None when a full sweep is due.

    ``d0`` are the distances of every row from ``c0``. Row i lies within d0_i + ||center - c0|| of
    the center, and the farthest row no nearer than ``far`` (the previous farthest row), so a row
    whose bound, widened by ``_PRUNE_MARGIN``, falls below far's distance is strictly nearer than the
    farthest row and never the first of equals. The widening covers the rounding while the squared
    distances are normal numbers; below that, or at an overflow, every row is measured.
    """
    floor = float(row_distances(space, xs[far:far + 1], center)[0])
    moved = norm(space, center - c0)
    if not (space.dim * np.finfo(np.float64).tiny < (floor * _PRUNE_MARGIN) ** 2 < math.inf and moved < math.inf):
        return None
    keep = d0 >= floor * (1.0 - _PRUNE_MARGIN) - moved * (1.0 + _PRUNE_MARGIN)
    keep[far] = True
    return np.flatnonzero(keep) if 4 * np.count_nonzero(keep) <= keep.size else None
