"""Upper-bound chains for the weighted-sequence functionals.

Each builder evaluates one inequality family and returns a
:class:`BoundChain`: the functional value together with its ordered bound
links (or, for the forward-difference families, three parallel alternative
bounds, since no ordering among the branches holds in general).

Chains are tagged with the equation identifiers used throughout reports:
"2.3", "2.7", "2.8", "2.9", "2.11", "R2.7" for the enclosure-hypothesis
families, and "1.6"/"1.8" for the forward-difference families whose final
links carry the classical tags "1.2", "1.4", "1.5".

:data:`CHAINS` maps every tag accepted by ``bound --which`` to the inputs
its chain needs and to an adapter that calls the builder; the CLI and the
sharpness search both dispatch through it.

Hypotheses (ball condition on sequences, disc condition on scalars) are
verified by default; builders raise :class:`HypothesisError` on failure.
With ``check=False`` the chain is still evaluated and the reports recorded,
but nothing is raised; the chain is then marked as carrying an unverified
hypothesis, because the inequalities are false in general without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .conditions import ConditionReport, Enclosure, _disc, _measured
from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DimensionMismatchError,
    HypothesisError,
)
from .functionals import WeightedSequence, _Centered, _CenteredScalars, _checked, _gruss, _pair, chebyshev
from .space import ProbabilityVector, Space, forward_differences, norm, row_norms

#: Relative slack allowed when verifying chain ordering.
CHAIN_TOL = 1e-10


@dataclass(frozen=True)
class BoundLink:
    label: str
    value: float
    equation: str


@dataclass(frozen=True, eq=False)
class BoundChain:
    """A functional value with the bound links that dominate it.

    ``ordered=True`` means links form a chain (each dominates the previous
    value); ``ordered=False`` means parallel alternatives, each of which
    individually dominates the functional.
    """

    equation: str
    functional_label: str
    functional_value: float
    links: tuple[BoundLink, ...]
    hypothesis_reports: tuple[ConditionReport, ...] = field(default=())
    ordered: bool = True
    hypothesis_verified: bool = True

    def __post_init__(self) -> None:
        labels = (self.functional_label,) + tuple(link.label for link in self.links)
        for label, value in zip(labels, self.values()):
            if not math.isfinite(value):
                raise ContractViolationError(
                    f"chain {self.equation}: {label} is {value!r}; the inputs overflow double precision"
                )

    def values(self) -> tuple[float, ...]:
        return (self.functional_value,) + tuple(link.value for link in self.links)

    def scale(self) -> float:
        return max(1.0, *(abs(v) for v in self.values()))

    def tightest_index(self) -> int:
        return int(np.argmin([link.value for link in self.links]))

    def ordering_violation(self) -> float:
        """Largest amount by which the claimed dominance fails (<= 0 when it holds)."""
        if not self.links:
            return 0.0
        if self.ordered:
            seq = self.values()
            return max(prev - nxt for prev, nxt in zip(seq, seq[1:]))
        return max(self.functional_value - link.value for link in self.links)

    def holds(self, tol: float = CHAIN_TOL) -> bool:
        return self.ordering_violation() <= tol * self.scale()


def _same_space(a: Space, b: Space, what: str) -> None:
    if not a.compatible(b):
        raise DimensionMismatchError(f"{what} lives in an incompatible space")


def _gate(encl: Enclosure, rows: np.ndarray, kind: str, check: bool, name: str) -> ConditionReport:
    """The ``kind`` report on validated ``rows`` (the fit's, for the very array fitted); with ``check``, a failure raises."""
    report = _measured(encl, rows, kind)
    if report.holds or not check:
        return report
    bad = report.failing_indices()
    i = int(bad[0])
    raise HypothesisError(
        f"{kind} condition on {name} fails at index {i} (slack {report.slacks[i]:.6g}, {bad.size} of {len(report)} fail)",
        report=report,
    )


def _links(d: float, dlabel: str, view, mad_label: str, std_label: str, eq: str) -> tuple[BoundLink, BoundLink]:
    """The Cauchy-Schwarz step every enclosure chain takes: d/2 * mad <= d/2 * std of the centered ``view``."""
    return (
        BoundLink(f"0.5*{dlabel}*{mad_label}", 0.5 * d * view.mad(), eq),
        BoundLink(f"0.5*{dlabel}*{std_label}", 0.5 * d * math.sqrt(view.variance()), eq),
    )


def bound_chebyshev(encl_x: Enclosure, ws: WeightedSequence, *, check: bool = True) -> BoundChain:
    """Chain "2.3": |chebyshev| <= diam(x)/2 * mad(y) <= diam(x)/2 * std(y).

    Requires the ball condition on xs for the enclosure ``encl_x``.
    """
    ys = ws.require_ys()
    _same_space(encl_x.space, ws.space, "enclosure")
    report = _gate(encl_x, ws.xs, "ball", check, "xs")
    w = ws.p.weights
    cy = _Centered(ws.space, w, ys)
    return BoundChain(
        equation="2.3",
        functional_label="|chebyshev(p;x,y)|",
        functional_value=abs(_pair(ws.space, w, _Centered(ws.space, w, ws.xs), cy)),
        links=_links(encl_x.diameter, "diam(x)", cy, "mad(y)", "std(y)", "2.3"),
        hypothesis_reports=(report,),
        hypothesis_verified=report.holds,
    )


def bound_chebyshev_gruss(
    encl_x: Enclosure, encl_y: Enclosure, ws: WeightedSequence, *, check: bool = True
) -> BoundChain:
    """Chain "2.7": the "2.3" chain extended by diam(x)*diam(y)/4.

    Requires the ball condition on xs and on ys (both enclosures).
    """
    ys = ws.require_ys()
    _same_space(encl_y.space, ws.space, "y-enclosure")
    base = bound_chebyshev(encl_x, ws, check=check)
    report_y = _gate(encl_y, ys, "ball", check, "ys")
    final = BoundLink("0.25*diam(x)*diam(y)", 0.25 * encl_x.diameter * encl_y.diameter, "1.4")
    return BoundChain(
        equation="2.7",
        functional_label=base.functional_label,
        functional_value=base.functional_value,
        links=base.links + (final,),
        hypothesis_reports=base.hypothesis_reports + (report_y,),
        hypothesis_verified=report_y.holds and base.hypothesis_verified,
    )


def bound_variance(encl: Enclosure, p: ProbabilityVector, xs, *, check: bool = True) -> BoundChain:
    """Chain "2.8": variance <= diam(x)/2 * mad(x) <= diam(x)^2 / 4."""
    space = encl.space
    xs = _checked(p, space.matrix(xs))
    report = _gate(encl, xs, "ball", check, "xs")
    cx = _Centered(space, p.weights, xs)
    dx = encl.diameter
    return BoundChain(
        equation="2.8",
        functional_label="variance(p;x)",
        functional_value=cx.variance(),
        links=(
            BoundLink("0.5*diam(x)*mad(x)", 0.5 * dx * cx.mad(), "2.8"),
            BoundLink("0.25*diam(x)^2", 0.25 * dx * dx, "1.5"),
        ),
        hypothesis_reports=(report,),
        hypothesis_verified=report.holds,
    )


def bound_scalar_weighted(
    encl_x: Enclosure, ws: WeightedSequence, disc: tuple | None = None, *, check: bool = True
) -> BoundChain:
    """Chain "2.9" (or "2.11" with a scalar disc): bounds ||vector_gruss||.

    Links: diam(x)/2 * sum p|a - abar|, then diam(x)/2 * std(a); when a disc
    ``(a, A)`` containing the scalars is supplied, the classical final link
    |A - a| * diam(x) / 4 is appended and the disc condition checked.
    """
    al = ws.require_alphas()
    _same_space(encl_x.space, ws.space, "enclosure")
    reports = (_gate(encl_x, ws.xs, "ball", check, "xs"),)
    ca = _CenteredScalars(ws.p.weights, al)
    dx = encl_x.diameter
    links = _links(dx, "diam(x)", ca, "amad(alpha)", "astd(alpha)", "2.9")
    equation = "2.9"
    if disc is not None:
        a, A = disc
        reports = reports + (_gate(_disc(a, A), al[:, None], "disc", check, "alphas"),)
        links += (BoundLink("0.25*|A-a|*diam(x)", 0.25 * abs(complex(A) - complex(a)) * dx, "1.2"),)
        equation = "2.11"
    return BoundChain(
        equation=equation,
        functional_label="||gruss(p;alpha,x)||",
        functional_value=norm(ws.space, _gruss(ca, _Centered(ws.space, ws.p.weights, ws.xs))),
        links=links,
        hypothesis_reports=reports,
        hypothesis_verified=all(report.holds for report in reports),
    )


def bound_complex_sequence(a, A, p: ProbabilityVector, alphas, *, check: bool = True) -> BoundChain:
    """Chain "R2.7" for scalars: |sum p a^2 - (sum p a)^2| = |sum p (a - abar)^2| under a disc condition."""
    disc = _disc(a, A)
    alphas = _checked(p, disc.space.scalars(alphas))
    report = _gate(disc, alphas[:, None], "disc", check, "alphas")
    ca = _CenteredScalars(p.weights, alphas)
    return BoundChain(
        equation="R2.7",
        functional_label="|sq_gruss(p;alpha)|",
        functional_value=float(abs((ca.w * ca.dev**2).sum())),
        links=_links(abs(complex(A) - complex(a)), "|A-a|", ca, "amad(alpha)", "astd(alpha)", "R2.7"),
        hypothesis_reports=(report,),
        hypothesis_verified=report.holds,
    )


def index_variance(p: ProbabilityVector) -> float:
    """sum_i i^2 p_i - (sum_i i p_i)^2 over 1-based indices, as sum_i p_i (i - ibar)^2."""
    i = np.arange(1, len(p) + 1, dtype=np.float64)
    d = i - p.weights @ i
    return float(p.weights @ (d * d))


def pair_index_coefficient(p: ProbabilityVector) -> float:
    """sum_{j<i} p_i p_j (i - j) over 1-based indices.

    The inner sum sum_{j<i} p_j (i - j) equals sum_{k<i} P_k for the prefix
    sums P of p, so the coefficient is p_i weighted against the exclusive
    prefix sums of P: O(n) memory and time, every term nonnegative.
    """
    w = p.weights
    return float(w[1:] @ np.cumsum(np.cumsum(w))[:-1])


def half_complementary_weight(p: ProbabilityVector) -> float:
    """(1/2) sum_i p_i (1 - p_i)."""
    w = p.weights
    return 0.5 * float((w * (1.0 - w)).sum())


def equal_weight_coefficients(n: int) -> tuple[float, float, float]:
    """Closed forms of the three coefficients at uniform weights: (n^2-1)/12, (n^2-1)/(6n), (n-1)/(2n)."""
    if n < 2:
        raise DegenerateInputError("coefficients need n >= 2")
    return ((n * n - 1) / 12.0, (n * n - 1) / (6.0 * n), (n - 1) / (2.0 * n))


def _holder_factor(norms: np.ndarray, top: float, exponent: float) -> float:
    """(sum c^e)^(1/e) as m * (sum (c/m)^e)^(1/e) with ``top`` = m = max c, so no power overflows."""
    if math.isinf(exponent) or not 0.0 < top < math.inf:  # all zero, or overflowed
        return top
    return top * float(((norms / top) ** exponent).sum() ** (1.0 / exponent))


def _holder_pair(holder_p: float) -> tuple[float, float]:
    hp = float(holder_p)
    if not hp > 1.0:
        raise ContractViolationError(f"holder exponent must be > 1 (or inf), got {holder_p!r}")
    if math.isinf(hp):
        return math.inf, 1.0
    return hp, hp / (hp - 1.0)


def _difference_links(
    cx: np.ndarray, cy: np.ndarray, p: ProbabilityVector, holder_p: float, squared_label: bool
) -> tuple[BoundLink, ...]:
    hp, hq = _holder_pair(holder_p)
    c1 = index_variance(p)
    c2 = pair_index_coefficient(p)
    c3 = half_complementary_weight(p)
    sx = "dx"
    sy = "dx" if squared_label else "dy"
    eq = "1.8" if squared_label else "1.6"
    hp_txt = "inf" if math.isinf(hp) else f"{hp:g}"
    hq_txt = "inf" if math.isinf(hq) else f"{hq:g}"
    mx, my = float(cx.max()), float(cy.max())
    return (
        BoundLink(f"idxvar(p)*max|{sx}|*max|{sy}|", c1 * mx * my, eq),
        BoundLink(
            f"pairidx(p)*pnorm({sx},{hp_txt})*pnorm({sy},{hq_txt})",
            c2 * _holder_factor(cx, mx, hp) * _holder_factor(cy, my, hq),
            eq,
        ),
        BoundLink(f"gini(p)/2*sum|{sx}|*sum|{sy}|", c3 * float(cx.sum()) * float(cy.sum()), eq),
    )


def bound_forward_difference(ws: WeightedSequence, holder_p: float = 2.0) -> BoundChain:
    """Parallel bounds "1.6" on |chebyshev| from forward differences.

    Three alternatives, each individually dominating the functional:
    the index-variance branch (max-norms of the differences), the Holder
    branch with conjugate exponents (holder_p, holder_p/(holder_p-1)), and
    the complementary-weight branch (1-norms). ``holder_p=inf`` selects the
    (max-norm, 1-norm) endpoint of the Holder family. No enclosure
    hypothesis is involved.
    """
    ys = ws.require_ys()
    if ws.n < 2:
        raise DegenerateInputError("forward-difference bounds need n >= 2")
    cx = row_norms(ws.space, forward_differences(ws.xs))
    cy = row_norms(ws.space, forward_differences(ys))
    return BoundChain(
        equation="1.6",
        functional_label="|chebyshev(p;x,y)|",
        functional_value=abs(chebyshev(ws)),
        links=_difference_links(cx, cy, ws.p, holder_p, squared_label=False),
        ordered=False,
    )


def bound_forward_difference_self(
    space: Space, p: ProbabilityVector, xs, holder_p: float = 2.0
) -> BoundChain:
    """Parallel bounds "1.8" on the variance from forward differences of xs."""
    xs = _checked(p, space.matrix(xs))
    if xs.shape[0] < 2:
        raise DegenerateInputError("forward-difference bounds need n >= 2")
    cx = row_norms(space, forward_differences(xs))
    return BoundChain(
        equation="1.8",
        functional_label="variance(p;x)",
        functional_value=_Centered(space, p.weights, xs).variance(),
        links=_difference_links(cx, cx, p, holder_p, squared_label=True),
        ordered=False,
    )


@dataclass(frozen=True)
class ChainSpec:
    """The inputs one chain tag needs and the adapter that runs its builder.

    ``build(space, p, seqs, encls, disc, check, holder_p)`` receives the
    sequences named in ``sequences`` keyed as the :class:`WeightedSequence`
    fields ("xs", "ys", "alphas"), the enclosures named in ``enclosures``
    keyed "x"/"y", the scalar disc ``(a, A)`` when ``disc`` is set (else
    None), the hypothesis switch, and the Holder exponent, which only the
    chains flagged ``holder`` read. ``uniform`` tags are the equal-weight
    specializations and reject any other weights.
    """

    build: Callable[..., BoundChain]
    sequences: tuple[str, ...]
    enclosures: tuple[str, ...] = ()
    disc: bool = False
    uniform: bool = False
    holder: bool = False


def _ws(space: Space, p: ProbabilityVector, seqs: dict) -> WeightedSequence:
    return WeightedSequence(space, p, **seqs)


_CHEBYSHEV = ChainSpec(
    lambda sp, p, s, e, disc, check, hp: bound_chebyshev(e["x"], _ws(sp, p, s), check=check),
    ("xs", "ys"),
    ("x",),
)
_CHEBYSHEV_GRUSS = ChainSpec(
    lambda sp, p, s, e, disc, check, hp: bound_chebyshev_gruss(e["x"], e["y"], _ws(sp, p, s), check=check),
    ("xs", "ys"),
    ("x", "y"),
)
_VARIANCE = ChainSpec(
    lambda sp, p, s, e, disc, check, hp: bound_variance(e["x"], p, s["xs"], check=check),
    ("xs",),
    ("x",),
)
_SCALAR_WEIGHTED = ChainSpec(
    lambda sp, p, s, e, disc, check, hp: bound_scalar_weighted(e["x"], _ws(sp, p, s), disc=disc, check=check),
    ("xs", "alphas"),
    ("x",),
)
_FORWARD_DIFFERENCE = ChainSpec(
    lambda sp, p, s, e, disc, check, hp: bound_forward_difference(_ws(sp, p, s), holder_p=hp),
    ("xs", "ys"),
    holder=True,
)
_FORWARD_DIFFERENCE_SELF = ChainSpec(
    lambda sp, p, s, e, disc, check, hp: bound_forward_difference_self(sp, p, s["xs"], holder_p=hp),
    ("xs",),
    holder=True,
)
_SCALAR_WEIGHTED_DISC = replace(_SCALAR_WEIGHTED, disc=True)

#: Every ``bound --which`` tag, in the order the CLI lists them. A classical
#: single-bound tag runs the chain that carries it as final link; "1.7" and
#: "1.9" are the uniform-weight specializations of "1.6" and "1.8".
CHAINS: dict[str, ChainSpec] = {
    "1.2": _SCALAR_WEIGHTED_DISC,
    "1.4": _CHEBYSHEV_GRUSS,
    "1.5": _VARIANCE,
    "1.6": _FORWARD_DIFFERENCE,
    "1.7": replace(_FORWARD_DIFFERENCE, uniform=True),
    "1.8": _FORWARD_DIFFERENCE_SELF,
    "1.9": replace(_FORWARD_DIFFERENCE_SELF, uniform=True),
    "2.3": _CHEBYSHEV,
    "2.7": _CHEBYSHEV_GRUSS,
    "2.8": _VARIANCE,
    "2.9": _SCALAR_WEIGHTED,
    "2.11": _SCALAR_WEIGHTED_DISC,
    "R2.7": ChainSpec(
        lambda sp, p, s, e, disc, check, hp: bound_complex_sequence(disc[0], disc[1], p, s["alphas"], check=check),
        ("alphas",),
        disc=True,
    ),
}
