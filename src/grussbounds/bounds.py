"""Upper-bound chains for the weighted-sequence functionals.

A chain is a functional and the links that dominate it: ordered links, or,
for the forward-difference families, three parallel alternatives (no
ordering among the branches holds in general). Its tag is an equation
identifier: "2.3", "2.7", "2.8", "2.9", "2.11", "R2.7" for the
enclosure-hypothesis families, "1.6"/"1.8" for the forward-difference
families; final links carry the classical tags "1.2", "1.4", "1.5".

A :class:`ChainSpec` holds a chain as data: its gates (hypotheses), its
functional and its links, each link a constant times statistics of the
inputs, as a formula. One path evaluates every chain: the gates in the order
x, y, disc, then the statistics, each computed on first use and once, then
the links. :data:`CHAINS` maps every ``bound --which`` tag to its spec; the
public builders call the same path, as does ``jensen.reverse_jensen`` with
``_JENSEN`` (chain "3.9", whose Jensen gap is an input), and the sharpness
search evaluates only the link its target names.

Hypotheses (ball condition on sequences, disc condition on scalars) are
verified by default; builders raise :class:`HypothesisError` on failure.
With ``check=False`` the chain is still evaluated and the reports recorded,
but nothing is raised; the chain is then marked as carrying an unverified
hypothesis, because the inequalities are false in general without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .conditions import ConditionReport, Enclosure, _disc, _matrix, _report
from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DimensionMismatchError,
    HypothesisError,
)
from .functionals import WeightedSequence, _Centered, _CenteredScalars, _checked, _gruss, _pair
from .space import ProbabilityVector, Space, _weighted_sum, row_norms

#: Relative slack allowed when verifying chain ordering.
CHAIN_TOL = 1e-10

#: The sequence each enclosure (or the scalar disc) bounds.
ENCLOSED_SEQUENCE = {"x": "xs", "y": "ys", "z": "zs", "grad": "gradients", "disc": "alphas"}


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
        values = self.values()
        if all(map(math.isfinite, values)):
            return
        labels = (self.functional_label,) + tuple(link.label for link in self.links)
        label, value = next((label, value) for label, value in zip(labels, values) if not math.isfinite(value))
        raise ContractViolationError(f"chain {self.equation}: {label} is {value!r}; the inputs overflow double precision")

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

    def holds(self) -> bool:
        return self.ordering_violation() <= CHAIN_TOL * self.scale()


def _same_space(a: Space, b: Space, what: str) -> None:
    if a is not b and not a.compatible(b):
        raise DimensionMismatchError(f"{what} lives in an incompatible space")


class _Stats(dict):
    """The statistics of one chain's validated inputs, each computed on first use and kept.

    Keys are (name, kind): ``(seq, "centered")`` the centered view of a sequence, ``(seq, "diff")`` the row
    norms of its forward differences and ``(seq, "max")`` their largest. ``w`` are the weights; the links read
    each enclosure's diameter (|A - a| for the disc) from ``encls``. The sequences may be stacks of candidates,
    (K, n, dim) rows and (K, n) scalars with (K, n) or shared (n,) weights: a statistic is then an array
    over the leading axis (see :class:`functionals._Centered`), and so is what a link makes of it.
    """

    def __init__(self, space: Space, w: np.ndarray, arrays: dict, encls: dict, holder_p: float | None = None):
        self.space, self.w, self.arrays, self.encls, self.holder_p = space, w, arrays, encls, holder_p

    def __missing__(self, key: tuple[str, str]):
        name, kind = key
        if kind == "centered":
            rows = self.arrays[name]
            value = self[key] = _CenteredScalars(self.w, rows) if name == "alphas" else _Centered(self.space, self.w, rows)
        else:  # "diff" or "max", made together
            rows = self.arrays[name]
            if rows.shape[-2] < 2:
                raise DegenerateInputError("forward-difference bounds need n >= 2")
            norms = self[name, "diff"] = row_norms(self.space, rows[..., 1:, :] - rows[..., :-1, :])
            self[name, "max"] = norms.max(axis=-1)
            value = self[key]
        return value


class Link(NamedTuple):
    """One link of a chain: its label (a Holder chain's holds ``{}`` for each exponent), equation and formula."""

    label: str
    equation: str
    formula: Callable[[_Stats], float]


def _diam_label(encl: str) -> str:
    return "|A-a|" if encl == "disc" else f"diam({encl})"


def _spread(encl: str, seq: str, eq: str) -> tuple[Link, Link]:
    """The Cauchy-Schwarz step every enclosure chain takes: d/2 * mad <= d/2 * std of the centered ``seq``."""
    d = _diam_label(encl)
    mad, std = ("amad(alpha)", "astd(alpha)") if seq == "alphas" else (f"mad({seq[0]})", f"std({seq[0]})")
    return (
        Link(f"0.5*{d}*{mad}", eq, lambda s: 0.5 * s.encls[encl].diameter * s[seq, "centered"].mad()),
        Link(f"0.5*{d}*{std}", eq, lambda s: 0.5 * s.encls[encl].diameter * np.sqrt(s[seq, "centered"].variance())),
    )


def _quarter(a: str, b: str, eq: str) -> Link:
    """The classical final link d(a) * d(b) / 4 of two enclosures."""
    label = f"0.25*{_diam_label(a)}^2" if a == b else f"0.25*{_diam_label(a)}*{_diam_label(b)}"
    return Link(label, eq, lambda s: 0.25 * s.encls[a].diameter * s.encls[b].diameter)


def _gated(
    gates: tuple[str, ...], space: Space, w: np.ndarray, arrays: dict, encls: dict, check: bool, holder_p=None
) -> tuple[tuple[ConditionReport, ...], _Stats]:
    """The reports of ``gates`` (names in ``encls``, all enclosures) on their sequences, and the statistics they guard.

    With ``check``, the first failing gate raises :class:`HypothesisError`. The disc is an enclosure on the complex
    line, gated on the scalars. On a stack of candidates (see :class:`_Stats`) a report's slacks have the leading
    axis too; only ``check=False`` reads them.
    """
    reports = []
    for name in gates:
        seq = ENCLOSED_SEQUENCE[name]
        rows, kind = (arrays[seq], "ball") if name != "disc" else (arrays[seq][..., None], "disc")
        report = _report(encls[name], rows, kind)
        if check and not report.holds:
            bad = report.failing_indices()
            raise HypothesisError(
                f"{report.kind} condition on {seq} fails at index {bad[0]} "
                f"(slack {report.slacks[bad[0]]:.6g}, {bad.size} of {len(report)} fail)",
                report=report,
            )
        reports.append(report)
    return tuple(reports), _Stats(space, w, arrays, encls, holder_p)


def _links(links: tuple[Link, ...], stats: _Stats, holder: bool = False) -> tuple[BoundLink, ...]:
    """The links over ``stats``, as Python floats; a Holder chain's labels name its exponents, which its formulas validate."""
    if not holder:
        return tuple([BoundLink(label, float(formula(stats)), eq) for label, eq, formula in links])
    values = [float(formula(stats)) for _, _, formula in links]
    texts = ["inf" if math.isinf(e) else f"{e:g}" for e in _holder_pair(stats.holder_p)]
    return tuple([BoundLink(label.format(*texts), value, eq) for (label, eq, _), value in zip(links, values)])


def _evaluate(
    spec: ChainSpec, space: Space, p: ProbabilityVector, arrays: dict, encls: dict, check: bool, holder_p=None
) -> BoundChain:
    """The one chain path on validated ``arrays``: gates, then statistics, then links, then the chain."""
    reports, stats = _gated(spec.gates, space, p.weights, arrays, encls, check, holder_p)
    links = _links(spec.links, stats, spec.holder)
    verified = check or all(report.holds for report in reports)  # with check, a failing gate has raised
    label, functional = spec.functional
    return BoundChain(spec.equation, label, float(functional(stats)), links, reports, spec.ordered, verified)


def bound_chebyshev(encl_x: Enclosure, ws: WeightedSequence, *, check: bool = True) -> BoundChain:
    """Chain "2.3": |chebyshev| <= diam(x)/2 * mad(y) <= diam(x)/2 * std(y).

    Requires the ball condition on xs for the enclosure ``encl_x``.
    """
    ys = ws.require_ys()
    _same_space(encl_x.space, ws.space, "enclosure")
    return _evaluate(_CHEBYSHEV, ws.space, ws.p, {"xs": ws.xs, "ys": ys}, {"x": encl_x}, check)


def bound_chebyshev_gruss(
    encl_x: Enclosure, encl_y: Enclosure, ws: WeightedSequence, *, check: bool = True
) -> BoundChain:
    """Chain "2.7": the "2.3" chain extended by diam(x)*diam(y)/4.

    Requires the ball condition on xs and on ys (both enclosures).
    """
    ys = ws.require_ys()
    _same_space(encl_y.space, ws.space, "y-enclosure")
    _same_space(encl_x.space, ws.space, "enclosure")
    return _evaluate(_CHEBYSHEV_GRUSS, ws.space, ws.p, {"xs": ws.xs, "ys": ys}, {"x": encl_x, "y": encl_y}, check)


def bound_variance(encl: Enclosure, p: ProbabilityVector, xs, *, check: bool = True) -> BoundChain:
    """Chain "2.8": variance <= diam(x)/2 * mad(x) <= diam(x)^2 / 4."""
    return _evaluate(_VARIANCE, encl.space, p, {"xs": _checked(p, _matrix(encl, xs))}, {"x": encl}, check)


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
    spec = _SCALAR_WEIGHTED if disc is None else _SCALAR_WEIGHTED_DISC
    encls = {"x": encl_x, "disc": None if disc is None else _disc(*disc)}
    return _evaluate(spec, ws.space, ws.p, {"xs": ws.xs, "alphas": al}, encls, check)


def bound_complex_sequence(a, A, p: ProbabilityVector, alphas, *, check: bool = True) -> BoundChain:
    """Chain "R2.7" for scalars: |sum p a^2 - (sum p a)^2| = |sum p (a - abar)^2| under a disc condition."""
    disc = _disc(a, A)
    alphas = _checked(p, disc.space.scalars(alphas))
    return _evaluate(_COMPLEX_SEQUENCE, disc.space, p, {"alphas": alphas}, {"disc": disc}, check)


def index_variance(p: ProbabilityVector) -> float:
    """sum_i i^2 p_i - (sum_i i p_i)^2 over 1-based indices, as sum_i p_i (i - ibar)^2."""
    return _index_variance(p.weights)


def _index_variance(w: np.ndarray) -> float:
    i = np.arange(1, len(w) + 1, dtype=np.float64)
    d = i - _weighted_sum(w, i, -1)
    return float(_weighted_sum(w, d * d, -1))


def pair_index_coefficient(p: ProbabilityVector) -> float:
    """sum_{j<i} p_i p_j (i - j) over 1-based indices.

    The inner sum sum_{j<i} p_j (i - j) equals sum_{k<i} P_k for the prefix
    sums P of p, so the coefficient is p_i weighted against the exclusive
    prefix sums of P: O(n) memory and time, every term nonnegative.
    """
    return _pair_index_coefficient(p.weights)


def _pair_index_coefficient(w: np.ndarray) -> float:
    return float(_weighted_sum(w[1:], np.cumsum(np.cumsum(w))[:-1], -1))


def half_complementary_weight(p: ProbabilityVector) -> float:
    """(1/2) sum_i p_i (1 - p_i)."""
    return _half_complementary_weight(p.weights)


def _half_complementary_weight(w: np.ndarray) -> float:
    return 0.5 * float(_weighted_sum(w, 1.0 - w, -1))


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


def _holder_branch(s: _Stats, y: str) -> float:
    hp, hq = _holder_pair(s.holder_p)
    x_factor = _holder_factor(s["xs", "diff"], s["xs", "max"], hp)
    return _pair_index_coefficient(s.w) * x_factor * _holder_factor(s[y, "diff"], s[y, "max"], hq)


def _difference_links(eq: str, y: str) -> tuple[Link, Link, Link]:
    """The three forward-difference branches over the differences of xs and of ``y`` (xs again for "1.8")."""
    dy = "dy" if y == "ys" else "dx"
    return (
        Link(f"idxvar(p)*max|dx|*max|{dy}|", eq, lambda s: _index_variance(s.w) * s["xs", "max"] * s[y, "max"]),
        Link(f"pairidx(p)*pnorm(dx,{{}})*pnorm({dy},{{}})", eq, lambda s: _holder_branch(s, y)),
        Link(
            f"gini(p)/2*sum|dx|*sum|{dy}|", eq,
            lambda s: _half_complementary_weight(s.w) * float(s["xs", "diff"].sum()) * float(s[y, "diff"].sum()),
        ),
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
    return _evaluate(_FORWARD_DIFFERENCE, ws.space, ws.p, {"xs": ws.xs, "ys": ys}, {}, True, holder_p)


def bound_forward_difference_self(
    space: Space, p: ProbabilityVector, xs, holder_p: float = 2.0
) -> BoundChain:
    """Parallel bounds "1.8" on the variance from forward differences of xs."""
    return _evaluate(_FORWARD_DIFFERENCE_SELF, space, p, {"xs": _checked(p, space.matrix(xs))}, {}, True, holder_p)


@dataclass(frozen=True)
class ChainSpec:
    """One chain as data.

    ``sequences`` are the inputs it reads, named as an instance's sequences (``_JENSEN`` also
    reads its oracle's ``gradients``); ``enclosures`` ("x", "y"; "grad", "z") and ``disc`` its
    hypotheses, checked in that order (``gates``) on the sequences :data:`ENCLOSED_SEQUENCE`
    names; ``functional`` its (label, statistic)
    and ``links`` its :class:`Link` triples. ``ordered`` chains dominate link by link, the
    others are parallel alternatives; ``uniform`` tags are the equal-weight specializations
    and reject any other weights; ``holder`` chains read the Holder exponent.
    """

    equation: str
    functional: tuple[str, Callable[[_Stats], float]]
    links: tuple[Link, ...]
    sequences: tuple[str, ...]
    enclosures: tuple[str, ...] = ()
    disc: bool = False
    uniform: bool = False
    holder: bool = False
    ordered: bool = True
    gates: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", self.enclosures + ("disc",) * self.disc)


_CHEBYSHEV_FUNCTIONAL = ("|chebyshev(p;x,y)|", lambda s: abs(_pair(s.space, s.w, s["xs", "centered"], s["ys", "centered"])))
_VARIANCE_FUNCTIONAL = ("variance(p;x)", lambda s: s["xs", "centered"].variance())
_GRUSS_FUNCTIONAL = ("||gruss(p;alpha,x)||", lambda s: row_norms(s.space, _gruss(s["alphas", "centered"], s["xs", "centered"])))
_SQUARE_FUNCTIONAL = ("|sq_gruss(p;alpha)|", lambda s: abs(_weighted_sum(s.w, s["alphas", "centered"].dev ** 2, -1)))

_CHEBYSHEV = ChainSpec("2.3", _CHEBYSHEV_FUNCTIONAL, _spread("x", "ys", "2.3"), ("xs", "ys"), ("x",))
_CHEBYSHEV_GRUSS = replace(
    _CHEBYSHEV, equation="2.7", links=_CHEBYSHEV.links + (_quarter("x", "y", "1.4"),), enclosures=("x", "y")
)
_VARIANCE = ChainSpec("2.8", _VARIANCE_FUNCTIONAL, _spread("x", "xs", "2.8")[:1] + (_quarter("x", "x", "1.5"),), ("xs",), ("x",))
_SCALAR_WEIGHTED = ChainSpec("2.9", _GRUSS_FUNCTIONAL, _spread("x", "alphas", "2.9"), ("xs", "alphas"), ("x",))
_SCALAR_WEIGHTED_DISC = replace(
    _SCALAR_WEIGHTED, equation="2.11", links=_SCALAR_WEIGHTED.links + (_quarter("disc", "x", "1.2"),), disc=True
)
_COMPLEX_SEQUENCE = ChainSpec("R2.7", _SQUARE_FUNCTIONAL, _spread("disc", "alphas", "R2.7"), ("alphas",), disc=True)
_FORWARD_DIFFERENCE = ChainSpec(
    "1.6", _CHEBYSHEV_FUNCTIONAL, _difference_links("1.6", "ys"), ("xs", "ys"), holder=True, ordered=False
)
_FORWARD_DIFFERENCE_SELF = ChainSpec(
    "1.8", _VARIANCE_FUNCTIONAL, _difference_links("1.8", "xs"), ("xs",), holder=True, ordered=False
)
#: ``jensen.reverse_jensen``'s chain, whose oracle gives the input "gap"; not a ``bound --which`` tag.
_JENSEN = ChainSpec(
    "3.9", ("jensen_gap", lambda s: max(s.arrays["gap"], 0.0)),
    _spread("grad", "zs", "3.4") + (_quarter("grad", "z", "3.9"),), ("zs", "gradients"), ("grad", "z"),
)

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
    "R2.7": _COMPLEX_SEQUENCE,
}
