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
from .space import COMPLEX, Space, _blocks, _pairing, _per_row, _real_view, norm, row_distances

#: Relative dead-zone width for condition verdicts.
COND_TOL = 1e-10

#: Hard cap on the post-fit inflation factor of fit_enclosure.
MAX_INFLATION = 1.5

#: Cap on the Ritter expansion passes of fit_enclosure.
MAX_SWEEPS = 200

#: Scalar discs kept by ``_disc`` (a chain given the same disc on every call builds it once).
DISC_CACHE_SIZE = 64

#: The complex line every scalar disc lies on, and every disc fit runs on: one space, whose real view is made once.
_LINE = Space(1, COMPLEX)


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
        with np.errstate(over="ignore", invalid="ignore"):
            self._hold(self.space.vector(self.lo), self.space.vector(self.hi))

    @classmethod
    def _fit(cls, space: Space, lo: np.ndarray, hi: np.ndarray) -> "Enclosure":
        """The enclosure of a fit's endpoints, fresh C-ordered ``(dim,)`` arrays of ``space``'s dtype, not validated
        again: a non-finite one shows in the diameter. The fit ignores overflow."""
        encl = cls.__new__(cls)
        object.__setattr__(encl, "space", space)
        object.__setattr__(encl, "allow_degenerate", False)
        encl._hold(lo, hi)
        return encl

    def _hold(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Hold the endpoints, checked, and their diameter and center, read-only; overflow is ignored by the caller."""
        d = norm(self.space, hi - lo)
        if not math.isfinite(d * d):  # the box verdicts scale by the squared diameter
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):  # a fit's endpoint, unchecked till here
                raise ContractViolationError("vector entries must be finite")
            raise ContractViolationError("enclosure diameter overflows double precision")
        if d == 0.0 and not self.allow_degenerate:
            raise DegenerateInputError("degenerate enclosure: lo == hi")
        center = (lo + hi) / 2.0
        for a in (lo, hi, center):  # on a fresh array a third of the time of ``a.flags.writeable = False``
            a.setflags(write=False)
        for name, value in (("lo", lo), ("hi", hi), ("diameter", d), ("center", center)):
            object.__setattr__(self, name, value)  # vars(self).update would slow every later attribute read

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
    if kind == "box":  # Re<hi - x_i, x_i - lo>, on the real view, a row block at a time
        space, hi, lo, xs = _real_view(encl.space, encl.hi, encl.lo, xs)
        return _per_row(lambda x: _pairing(space, hi - x, x - lo), xs)
    return encl.radius - row_distances(encl.space, xs, encl.center)


def _matrix(encl: Enclosure, xs) -> np.ndarray:
    """``xs`` as ``encl.space.matrix`` gives it; the very rows ``encl`` was fitted to are not checked again,
    since that fit's first full pass showed every entry finite."""
    return xs if encl._fitted[0]() is xs else encl.space.matrix(xs)


def check_box(encl: Enclosure, xs) -> ConditionReport:
    """Check Re<hi - x_i, x_i - lo> >= 0 for every point."""
    return _report(encl, _matrix(encl, xs), "box")


def check_ball(encl: Enclosure, xs) -> ConditionReport:
    """Check ||x_i - center|| <= radius for every point (the fit's report, for the array it was fitted to)."""
    return _report(encl, _matrix(encl, xs), "ball")


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
    return Enclosure(_LINE, [a], [A])  # which checks that both are finite


def check_scalar_disc(a, A, alphas) -> ConditionReport:
    """Check |alpha_i - (a + A)/2| <= |A - a|/2 for scalars in the disc with antipodes a, A.

    For real ``a < A`` this is membership in the interval [a, A].
    """
    disc = _disc(a, A)
    return _report(disc, disc.space.scalars(alphas)[:, None], "disc")


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as a non-finite radius
def fit_enclosure(space: Space, xs) -> Enclosure:
    """Fit an enclosure whose ball condition holds for every input point.

    Seeds a ball on the farthest-point pair, runs Ritter expansion passes (at most ``MAX_SWEEPS``; they stop at the
    first fixed point, a ball that recurs after one pass or a cycle of them, with the ball the cap would end on,
    since every later pass only repeats: see :func:`_ritter`), tightens the radius to the exact maximal distance,
    and returns antipodes along the seed-pair direction.

    The result is validated with the ball condition and inflated about its center by the minimal factor needed to
    cover all points, which absorbs the rounding of the antipode construction. The inflated antipodes round at their
    own magnitude, which can leave the farthest row outside by about 3 u (||center|| + its distance), u = 2**-53,
    more than the dead zone from about 1e6 diameters out; then the inflation is redone to reach
    ``_ANTIPODE_ROUNDING`` times that sum further. A required factor above ``MAX_INFLATION`` raises
    ``EnclosureFitError``. Both take the farthest distance from the center, which ``_fitted`` keeps as the least
    slack of the ball report on the rows (which it refers to, weakly), so that :func:`_report` measures nothing for
    that report until its slacks are read.

    Each pass finds the farthest row from a center with :func:`_farthest`: two seed passes, one per sweep, and one
    or, after an inflation, two for the report (the sweep that stops the expansion gives the tight radius). On rows
    of more than one block one full pass, the anchor, bounds how far each row can lie from a later center, and every
    later pass measures only rows not strictly nearer than a row it is given (:func:`_sweep_rows`). The anchor is a
    pass from the middle of the rows when a sample of them shows that it prunes the first seed pass (distances from
    the middle spread, unlike a shell's): a fit of well-spread rows makes that one full pass. Otherwise the first
    seed pass, from ``xs[0]``, is the anchor. On rows 8 or more real numbers wide, where that test prunes little, a
    pass it leaves with every row is filtered by one matrix-vector product against the last exact pass
    (:func:`_filtered_rows`): such a fit makes one exact pass. The first full pass also shows a non-finite entry
    (:func:`_farthest`). On rows of one block every pass is a full one, one call of the row kernel. Only the
    input is validated: ``Enclosure._fit`` holds the fit's own fresh endpoints as they are, with the constructor's
    checks and errors. Complex rows are fitted on their real view, but for the antipode direction's canonical phase.
    """
    given = space._rows(xs)
    real, xs = _real_view(space, given)
    far, anchor = 0, None
    if _blocks(xs) is not None:  # sample rows: the farthest from xs[0] is its floor, the rest estimate the share kept
        sample = xs[::_SAMPLE]
        c = sample.mean(axis=0)
        far = _SAMPLE * int(row_distances(real, sample, xs[0]).argmax())
        thr = _threshold(real, norm(real, xs[far] - xs[0]), norm(real, xs[0] - c))
        if thr is not None and np.count_nonzero(row_distances(real, sample, c) >= thr) < _PRUNE_SHARE * len(sample):
            anchor = _farthest(real, xs, c, 0, None)[2]
    central = anchor is not None
    i1, dmax, anchor = _farthest(real, xs, xs[0], far, anchor)
    if dmax == 0.0:
        raise DegenerateInputError("cannot fit an enclosure to identical points")
    far = _SAMPLE * int(row_distances(real, sample, xs[i1]).argmax()) if central else i1  # i1: a floor of 0 prunes nothing
    i2, dmax, anchor = _farthest(real, xs, xs[i1], far, anchor)
    center, radius, far, anchor = _ritter(real, xs, (xs[i1] + xs[i2]) / 2.0, dmax / 2.0, i2, anchor)
    u = xs[i2] - xs[i1]
    d = norm(real, u)
    if not (math.isfinite(radius) and math.isfinite(d)):  # the seed pair's distance can overflow alone
        raise ContractViolationError("cannot fit an enclosure: the distances overflow double precision")
    u = u.view(space.dtype) / d  # from here on, vectors of ``space``
    # canonical sign/phase: make the first nonzero component positive real
    k = next(i for i, v in enumerate(u.tolist()) if v)
    if space.is_complex:
        pivot = u[k]
        u = u * (np.conj(pivot) / abs(pivot))
    elif u.item(k) < 0.0:
        u = -u  # u * sign(pivot), to the bit

    u *= radius
    center = center.view(space.dtype)
    fit = Enclosure._fit(space, center - u, center + u)
    c = fit.center
    far, reach, anchor = _farthest(real, xs, c.view(np.float64), far, anchor)
    slack = 0.0
    for _ in range(2):
        factor = (reach + slack) / fit.radius
        if factor > MAX_INFLATION:
            raise EnclosureFitError(f"enclosure needs inflation by {factor:.6g} > {MAX_INFLATION}")
        encl, dmax = fit, reach
        if factor > 1.0:
            encl = Enclosure._fit(space, c + (fit.lo - c) * factor, c + (fit.hi - c) * factor)
            far, dmax, anchor = _farthest(real, xs, encl.center.view(np.float64), far, anchor)
        least = encl.radius - dmax
        if least >= -COND_TOL * encl.diameter:  # the ball report's verdict
            object.__setattr__(encl, "_fitted", (weakref.ref(given), least))  # the rows may be freed with their owner
            return encl
        slack = _ANTIPODE_ROUNDING * (norm(space, c) + reach)  # the antipodes' rounding (see the docstring)
    raise EnclosureFitError("inflated enclosure still fails the ball condition")


#: Relative widening of the pruned passes' triangle-inequality tests, far above the distances' rounding.
_PRUNE_MARGIN = 1e-9

#: The largest share of the rows a pruned pass measures; one that would keep more measures them all.
_PRUNE_SHARE = 0.25

#: How far past the farthest distance a redone inflation reaches, against ||center|| + that distance: 8 u.
_ANTIPODE_ROUNDING = 2.0 ** -50

#: The stride of the sample rows that decide on an anchor from the middle and give the seed passes their floors.
_SAMPLE = 64


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


def _farthest(space: Space, xs: np.ndarray, center: np.ndarray, far: int, anchor) -> tuple[int, float, list | None]:
    """The row farthest from ``center`` (the first of equals), its distance, and the anchor after this pass.

    ``anchor`` is [c0, d0, kept, above, base] or None: upper bounds d0 on every row's distance from c0, the rows
    the last pruned pass kept, every row with d0_i >= ``above`` among them, and, on rows 8 or more wide (not
    summed by columns), the base: the last exact pass. With an anchor only :func:`_sweep_rows` are measured,
    with the same result; when that is every row, the base filters them (:func:`_filtered_rows`), and its bounds
    become d0 from ``center``. Otherwise every row is, and on rows of more than one block with a finite farthest
    distance that exact pass is the anchor and the base. The fit does not check its rows finite on entry, and every
    pass before the first anchor is a full one: a non-finite entry makes its farthest distance NaN or inf, and such
    a distance checks the entries, to tell a bad one from an overflow.
    """
    one = _blocks(xs) is None  # then every pass is a full one, one call of the row kernel
    rows = None if anchor is None else _sweep_rows(space, xs, center, far, anchor)
    if rows is None and anchor is not None and anchor[4] is not None:
        rows, bounds = _filtered_rows(space, xs, center, anchor[4])
        if rows is not None:
            anchor = [center, bounds, None, math.inf, anchor[4]]
    dists = np.sqrt(sq := _pairing(space, xs, ca=center), out=sq) if one else row_distances(  # take: as xs[rows], faster
        space, xs if rows is None else np.take(xs, rows, axis=0), center)
    j = int(dists.argmax())
    if rows is not None:
        return int(rows[j]), float(dists[j]), anchor
    dmax = float(dists[j])
    if not math.isfinite(dmax) and not np.isfinite(xs).all():
        raise ContractViolationError("vector entries must be finite")
    if one or not math.isfinite(dmax):
        return j, dmax, None
    return j, dmax, [center, dists, None, math.inf, (center, dists, dmax) if xs.shape[1] >= 8 else None]


def _filtered_rows(space: Space, xs: np.ndarray, center: np.ndarray, base: tuple):
    """The rows that can be farthest from ``center``, ascending, and an upper bound on every row's distance from it,
    from one product of the rows against ``center - c_b``; (None, None) when every row is to be measured.

    The rows are real (of a complex fit, the real view). The base is an exact pass: its center c_b, every row's
    distance d_i from it, and the largest D. With v = center - c_b, row i's squared distance is e_i = d_i**2 -
    2 <x_i, v> + (2 <c_b, v> + ||v||**2), all n <x_i, v> from one ``xs @ (metric * v)``. In floats e_i is off by at
    most E = 4 (dim + 8) u S, u = 2**-53, where S = D**2 + 2 (2 ||c_b|| + D) ||v|| + ||v||**2 bounds every term and
    partial sum. With W = dim numbers a row and gamma_k = k u / (1 - k u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3): d_i**2 (differences, squares, weights, a sum in any order, root and square) is
    off by gamma_(W+5) D**2; a dot product of W terms in any order by gamma_W sum_k m_k |x_ik| |v_k| <=
    gamma_W ||x_i|| ||v|| (Cauchy-Schwarz in the metric), with ||x_i|| <= ||c_b|| + D, and one u more for the
    weights; likewise 2 <c_b, v>, and ||v||**2 by gamma_(W+5) ||v||**2; the rounding of v itself moves e_i by
    2 u S; three additions, u S each. That is about (W + 10) u S, and E, at least twice it, also covers the rounding
    of its own inputs.
    It holds for any summation order, so for any BLAS thread count.

    So U_i = sqrt(max(e_i, 0) + E) (1 + ``_PRUNE_MARGIN``) bounds row i's distance, and the farthest is at least
    L = sqrt(max(max e - E, 0)); the margin covers the square roots and the measured distances, as in
    :func:`_threshold`. A row with U_i < L (1 - margin) is strictly nearer than the farthest, so the rows left hold
    every first of equals. E must be a normal number (below, the products lose relative precision) and 2 S finite
    (nothing overflows); when it is not, or over ``_PRUNE_SHARE`` of the rows are left, every row is measured.
    """
    cb, db, dmax = base
    v = center - cb
    moved = norm(space, v)
    size = dmax * dmax + 2.0 * (2.0 * norm(space, cb) + dmax) * moved + moved * moved
    err = 4.0 * (space.dim + 8) * 2.0 ** -53 * size
    if not (np.finfo(np.float64).tiny <= err and 2.0 * size < math.inf):
        return None, None
    w = v if space.metric is None else v * space.metric
    bounds = xs @ w
    bounds *= -2.0
    bounds += db * db
    bounds += 2.0 * float(cb @ w) + moved * moved
    floor = math.sqrt(max(float(bounds.max()) - err, 0.0)) * (1.0 - _PRUNE_MARGIN)
    np.maximum(bounds, 0.0, out=bounds)
    bounds += err
    np.sqrt(bounds, out=bounds)
    bounds *= 1.0 + _PRUNE_MARGIN
    keep = bounds >= floor
    if np.count_nonzero(keep) > _PRUNE_SHARE * len(bounds):
        return None, None
    return np.flatnonzero(keep), bounds


def _sweep_rows(space: Space, xs: np.ndarray, center: np.ndarray, far: int, anchor: list):
    """The rows that can be farthest from ``center``, ascending, or None when every row is to be measured.

    Row i lies within d0_i + ||center - c0|| of the center, and the farthest row no nearer than ``far`` (the
    previous farthest row, or a sample row for a seed pass), so a row whose bound, widened by ``_PRUNE_MARGIN``,
    falls below far's distance is strictly nearer and never the first of equals. The widening covers the rounding
    while the squared distances are normal numbers; below that, at an overflow, or past ``_PRUNE_SHARE``, all are.
    """
    thr = _threshold(space, float(row_distances(space, xs[far:far + 1], center)[0]), norm(space, center - anchor[0]))
    return None if thr is None else _kept_rows(anchor, thr, far)


def _threshold(space: Space, floor: float, moved: float) -> float | None:
    """The d0 below which a row is strictly nearer the center than ``floor``; None when the margin may not cover it."""
    ok = space.dim * np.finfo(np.float64).tiny < (floor * _PRUNE_MARGIN) ** 2 < math.inf and moved < math.inf
    return floor * (1.0 - _PRUNE_MARGIN) - moved * (1.0 + _PRUNE_MARGIN) if ok else None


def _kept_rows(anchor: list, thr: float, far: int):
    """The rows with d0_i >= ``thr``, and ``far``, ascending, kept in ``anchor``; None if over ``_PRUNE_SHARE``
    (a threshold no lower than the kept rows' filters them; a lower one counts every d0_i >= thr first)."""
    d0, kept, above = anchor[1:4]
    if thr < above and np.count_nonzero(keep := d0 >= thr) > _PRUNE_SHARE * len(d0):
        return None
    rows = kept[d0[kept] >= thr] if thr >= above else np.flatnonzero(keep)
    if (at := int(np.searchsorted(rows, far))) == len(rows) or rows[at] != far:
        rows = np.insert(rows, at, far)
    if len(rows) > _PRUNE_SHARE * len(d0):
        return None
    anchor[2:4] = rows, thr
    return rows
