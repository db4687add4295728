"""Ball/box hypothesis checks for enclosures, and enclosure fitting.

An :class:`Enclosure` is a pair of antipodal vectors ``(lo, hi)``. For each
point ``v`` the two per-point conditions

    box :  Re<hi - v, v - lo> >= 0
    ball:  ||v - (lo + hi)/2|| <= ||hi - lo|| / 2

are equivalent; in fact the box slack always equals
``radius**2 - ||v - center||**2``. Both slacks are computed directly (not
one from the other) so the identity itself stays testable.

Verdicts use a dead zone of ``COND_TOL`` relative to the enclosure diameter
(diameter squared for the box form, whose slack is quadratic in lengths), so
boundary points pass deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateInputError,
    EnclosureFitError,
)
from .space import COMPLEX, Space, norm, pairing, row_norms

#: Relative dead-zone width for condition verdicts.
COND_TOL = 1e-10

#: Hard cap on the post-fit inflation factor of fit_enclosure.
MAX_INFLATION = 1.5

#: Cap on the Ritter expansion passes of fit_enclosure.
MAX_SWEEPS = 200


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", self.space.vector(self.lo))
        object.__setattr__(self, "hi", self.space.vector(self.hi))
        with np.errstate(over="ignore", invalid="ignore"):
            d = norm(self.space, self.hi - self.lo)
        if not math.isfinite(d * d):  # the box verdicts scale by the squared diameter
            raise ContractViolationError("enclosure diameter overflows double precision")
        if d == 0.0 and not self.allow_degenerate:
            raise DegenerateInputError("degenerate enclosure: lo == hi")
        object.__setattr__(self, "_diameter", d)

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def diameter(self) -> float:
        return self._diameter

    @property
    def radius(self) -> float:
        return self._diameter / 2.0

    @property
    def degenerate(self) -> bool:
        return self._diameter == 0.0

    def inflated(self, factor: float) -> "Enclosure":
        """Enclosure scaled about its center by ``factor``."""
        c = self.center
        return Enclosure(
            self.space,
            c + (self.lo - c) * factor,
            c + (self.hi - c) * factor,
            allow_degenerate=self.allow_degenerate,
        )


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Per-point slacks and verdicts for both condition forms.

    ``kind`` names the primary form ("box", "ball" or "disc"); the overall
    verdict ``holds`` is the conjunction of the primary per-point verdicts.
    Scales are the dead-zone normalizers: diameter squared for the box form,
    diameter for the ball form.
    """

    kind: str
    box_slacks: np.ndarray
    ball_slacks: np.ndarray
    box_verdicts: np.ndarray
    ball_verdicts: np.ndarray
    holds: bool
    box_scale: float
    ball_scale: float
    tol: float = COND_TOL

    @property
    def slacks(self) -> np.ndarray:
        return self.box_slacks if self.kind == "box" else self.ball_slacks

    @property
    def verdicts(self) -> np.ndarray:
        return self.box_verdicts if self.kind == "box" else self.ball_verdicts

    def failing_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.verdicts)

    def min_slack(self) -> float:
        return float(self.slacks.min())

    def __len__(self) -> int:
        return int(self.slacks.size)


def _dual_report(encl: Enclosure, xs: np.ndarray, kind: str) -> ConditionReport:
    """Both slacks of every row of validated ``xs``; ``kind`` picks the verdict form."""
    space = encl.space
    box_slacks = np.real(pairing(space, encl.hi - xs, xs - encl.lo)).astype(np.float64)
    ball_slacks = encl.radius - row_norms(space, xs - encl.center)

    box_scale = encl.diameter * encl.diameter
    ball_scale = encl.diameter
    box_verdicts = box_slacks >= -COND_TOL * box_scale
    ball_verdicts = ball_slacks >= -COND_TOL * ball_scale
    primary = box_verdicts if kind == "box" else ball_verdicts
    return ConditionReport(
        kind=kind,
        box_slacks=box_slacks,
        ball_slacks=ball_slacks,
        box_verdicts=box_verdicts,
        ball_verdicts=ball_verdicts,
        holds=bool(primary.all()),
        box_scale=box_scale,
        ball_scale=ball_scale,
    )


def check_box(encl: Enclosure, xs) -> ConditionReport:
    """Check Re<hi - x_i, x_i - lo> >= 0 for every point."""
    return _dual_report(encl, encl.space.matrix(xs), "box")


def check_ball(encl: Enclosure, xs) -> ConditionReport:
    """Check ||x_i - center|| <= radius for every point."""
    return _dual_report(encl, encl.space.matrix(xs), "ball")


def _disc(a, A) -> Enclosure:
    """The scalar disc with antipodes a, A as an enclosure on the complex line."""
    if complex(a) == complex(A):
        raise DegenerateInputError("degenerate disc: a == A")
    return Enclosure(Space(1, COMPLEX), [a], [A])  # which checks that both are finite


def check_scalar_disc(a, A, alphas) -> ConditionReport:
    """Check |alpha_i - (a + A)/2| <= |A - a|/2 for scalars in the disc with antipodes a, A.

    For real ``a < A`` this is membership in the interval [a, A].
    """
    disc = _disc(a, A)
    return _dual_report(disc, disc.space.scalars(alphas)[:, None], "disc")


def fit_enclosure(space: Space, xs) -> Enclosure:
    """Fit an enclosure whose ball condition holds for every input point.

    Seeds a ball on the farthest-point pair, runs Ritter expansion passes
    (at most ``MAX_SWEEPS``), tightens the radius to the exact maximal
    distance, and returns antipodes along the seed-pair direction.

    The result is validated with :func:`check_ball` and inflated about its
    center by the minimal factor needed to cover all points, which absorbs
    the rounding of the antipode construction; a required factor above
    ``MAX_INFLATION`` raises ``EnclosureFitError``.
    """
    return _fit(space, space.matrix(xs))


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as a non-finite radius
def _fit(space: Space, xs: np.ndarray) -> Enclosure:
    d0 = row_norms(space, xs - xs[0][None, :])
    if float(d0.max()) == 0.0:
        raise DegenerateInputError("cannot fit an enclosure to identical points")

    i1 = int(np.argmax(d0))
    d1 = row_norms(space, xs - xs[i1][None, :])
    i2 = int(np.argmax(d1))
    center = (xs[i1] + xs[i2]) / 2.0
    radius = float(d1[i2]) / 2.0
    for _ in range(MAX_SWEEPS):
        dists = row_norms(space, xs - center[None, :])
        far = int(np.argmax(dists))
        dmax = float(dists[far])
        if not dmax > radius:  # NaN after an overflow stops too
            break
        new_radius = (radius + dmax) / 2.0
        center = center + (xs[far] - center) * ((dmax - new_radius) / dmax)
        radius = new_radius
    radius = float(row_norms(space, xs - center[None, :]).max())
    if not np.isfinite(radius):
        raise ContractViolationError("cannot fit an enclosure: the distances overflow double precision")
    u = xs[i2] - xs[i1]
    u = u / norm(space, u)
    # canonical sign/phase: make the first nonzero component positive real
    k = int(np.argmax(np.abs(u) > 0.0))
    pivot = u[k]
    u = u * (np.conj(pivot) / abs(pivot)) if space.is_complex else u * np.sign(np.real(pivot))

    encl = Enclosure(space, center - radius * u, center + radius * u)
    dists = row_norms(space, xs - encl.center[None, :])
    factor = float(dists.max()) / encl.radius
    if factor > MAX_INFLATION:
        raise EnclosureFitError(f"enclosure needs inflation by {factor:.6g} > {MAX_INFLATION}")
    if factor > 1.0:
        encl = encl.inflated(factor)
    report = _dual_report(encl, xs, "ball")
    if not report.holds:
        raise EnclosureFitError("inflated enclosure still fails the ball condition")
    return encl
