"""Empirical probes of the best-possible constants in the bound chains.

Two tools:

* :func:`extremal_thm23` builds the exact two-point configuration (ys = xs,
  endpoints of the enclosure) on which the first link of the "2.3" chain is
  attained with equality, for any weight split and any dimension.

* :func:`search` runs randomized restarts of hypothesis-preserving hill
  climbing that maximizes functional / bound for a named target ratio. Every
  candidate is projected into the hypothesis ball before evaluation, so the
  certified inequality itself guards the search: a ratio above 1 + 1e-9
  raises :class:`SoundnessError` with the offending witness.

Ratios carry the target's constant in the denominator, so "sharp" reads as
ratio -> 1. Budgets are consumed in fixed-size restarts, each owning a
generator seeded by (seed, restart_index); the evaluation stream of a
smaller budget is a prefix of a larger one, hence results are deterministic
and non-decreasing in the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import CHAINS, BoundChain, bound_chebyshev
from .conditions import Enclosure
from .errors import ContractViolationError, SoundnessError
from .functionals import WeightedSequence, _Centered, _CenteredScalars, _gruss, _pair
from .instancefile import instance_document
from .space import ProbabilityVector, Space, norm

#: Candidate evaluations per restart.
RESTART_SIZE = 500

#: A ratio above 1 + this aborts the search (inequality violated).
RATIO_GUARD = 1e-9

#: Holder exponent of the forward-difference chains the search evaluates.
HOLDER_P = 2.0


@dataclass(frozen=True)
class TargetInfo:
    constant: float  # the constant baked into the denominator link
    equation: str  # report tag of the chain the ratio comes from
    link_index: int  # which link is the denominator


#: Each target's candidates carry the sequences its chain reads, free
#: weights unless the chain requires uniform ones, and a y-enclosure when
#: the chain needs one (see :data:`bounds.CHAINS`).
TARGETS: dict[str, TargetInfo] = {
    "thm23_first": TargetInfo(0.5, "2.3", 0),
    "thm23_second": TargetInfo(0.5, "2.3", 1),
    "rem24_final": TargetInfo(0.25, "2.7", 2),
    "thm25_first": TargetInfo(0.5, "2.9", 0),
    "fd_equal_weights_max": TargetInfo(1.0 / 12.0, "1.7", 0),
}


@dataclass(frozen=True, eq=False)
class SharpnessResult:
    target: str
    target_constant: float
    achieved_ratio: float
    witness: dict  # instance document reproducing the best candidate
    trials: int
    seed: int


def extremal_thm23(p1: float = 0.5, space: Space | None = None, lo=None, hi=None) -> SharpnessResult:
    """Exact equality configuration for the first link of the "2.3" chain.

    Defaults to p = (1/2, 1/2) and endpoints 0, 1 on the real line. The
    ratio is 1 for every 0 < p1 < 1 and any distinct endpoints: both sides
    scale by 2 p1 p2 times the squared endpoint distance.
    """
    if not 0.0 < p1 < 1.0:
        raise ContractViolationError(f"p1 must lie strictly between 0 and 1, got {p1!r}")
    if space is None:
        space = Space(1)
    lo = space.zero() if lo is None else space.vector(lo)
    if hi is None:
        e = np.zeros(space.dim, dtype=space.dtype)
        e[0] = 1.0
        hi = space.vector(e)
    else:
        hi = space.vector(hi)
    encl = Enclosure(space, lo, hi)
    pts = np.array([lo, hi])
    ws = WeightedSequence(space, ProbabilityVector(np.array([p1, 1.0 - p1])), xs=pts, ys=pts)
    chain = bound_chebyshev(encl, ws)
    denom = chain.links[0].value
    ratio = chain.functional_value / denom if denom > 0.0 else 0.0
    witness = instance_document(
        space, weights=ws.p, xs=ws.xs, ys=ws.ys, enclosures={"x": encl, "y": encl}
    )
    return SharpnessResult("thm23_first", 0.5, ratio, witness, trials=1, seed=0)


class _Problem:
    """Target-specific candidate handling for the hill climber."""

    def __init__(self, target: str, n: int, dim: int):
        self.info = TARGETS[target]
        self.spec = CHAINS[self.info.equation]
        self.target = target
        self.n = n
        self.dim = dim
        self.space = Space(dim)
        e = np.zeros(dim)
        e[0] = 1.0
        self.encl_x = Enclosure(self.space, -e, e)
        self.encl_y = Enclosure(self.space, -e, e) if "y" in self.spec.enclosures else None
        self.enclosures = {k: v for k, v in (("x", self.encl_x), ("y", self.encl_y)) if v is not None}
        self.uniform = ProbabilityVector.uniform(n)
        self.vector_blocks = self.spec.sequences

    # -- candidate construction -------------------------------------------

    def _ball_point(self, rng: np.random.Generator) -> np.ndarray:
        u = rng.standard_normal(self.dim)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            u = np.zeros(self.dim)
            u[0] = 1.0
            nrm = 1.0
        return (u / nrm) * rng.random() ** (1.0 / self.dim)

    def _project(self, row: np.ndarray, encl: Enclosure) -> np.ndarray:
        c = encl.center
        cap = encl.radius * (1.0 - 1e-12)
        dist = float(np.linalg.norm(row - c))
        if dist > cap:
            row = c + (row - c) * (cap / dist)
        return row

    def _normalize(self, cand: dict) -> dict:
        # the forward-difference ratio is shift- and scale-invariant in both
        # sequences; pinning them to centered unit scale keeps max||delta||
        # bounded away from zero, so the ratio never degenerates into
        # rounding noise the climber could chase
        if self.target != "fd_equal_weights_max":
            return cand
        for key in ("xs", "ys"):
            rows = cand[key] - cand[key].mean(axis=0)
            top = float(np.linalg.norm(rows, axis=1).max())
            if top > 0.0:
                cand[key] = rows / top
        return cand

    def initial(self, rng: np.random.Generator) -> dict:
        cand: dict = {}
        if not self.spec.uniform:
            w = rng.exponential(size=self.n)
            cand["p"] = w / w.sum()
        cand["xs"] = np.array([self._ball_point(rng) for _ in range(self.n)])
        if "ys" in self.vector_blocks:
            ys = rng.standard_normal((self.n, self.dim))
            if self.encl_y is not None:
                ys = np.array([self._project(row, self.encl_y) for row in ys])
            cand["ys"] = ys
        if "alphas" in self.vector_blocks:
            cand["alphas"] = rng.standard_normal(self.n)
        return self._normalize(cand)

    def propose(self, rng: np.random.Generator, cand: dict, sigma: float) -> dict:
        new = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in cand.items()}
        if not self.spec.uniform and rng.random() < 0.35:
            w = new["p"] * np.exp(sigma * rng.standard_normal(self.n))
            new["p"] = w / w.sum()
            return new
        block = self.vector_blocks[int(rng.integers(len(self.vector_blocks)))]
        i = int(rng.integers(self.n))
        if block == "alphas":
            new["alphas"][i] += sigma * rng.standard_normal()
            return new
        row = new[block][i] + sigma * rng.standard_normal(self.dim)
        if block == "xs":
            row = self._project(row, self.encl_x)
        elif self.encl_y is not None:
            row = self._project(row, self.encl_y)
        new[block][i] = row
        return self._normalize(new)

    # -- evaluation ---------------------------------------------------------

    def _weights(self, cand: dict) -> ProbabilityVector:
        return self.uniform if self.spec.uniform else ProbabilityVector(cand["p"])

    def chain(self, cand: dict, p: ProbabilityVector) -> BoundChain:
        seqs = {name: cand[name] for name in self.vector_blocks}
        return self.spec.build(self.space, p, seqs, self.enclosures, None, True, HOLDER_P)

    def _stable_functional(self, cand: dict, w: np.ndarray) -> float:
        # re-centered evaluation at the enclosure center: same value as the
        # chain functional, but the Cauchy-Schwarz steps of the bound then
        # hold for the computed arrays themselves (numerator and denominator
        # share the identical centered rows), so rounding alone can never
        # push the ratio past 1
        cx = cand["xs"] - self.encl_x.center
        if "alphas" in self.vector_blocks:
            return norm(self.space, _gruss(_CenteredScalars(w, cand["alphas"]), cx))
        return abs(_pair(self.space, w, cx, _Centered(self.space, w, cand["ys"]).rows))

    def ratio(self, cand: dict) -> float:
        p = self._weights(cand)
        denom = self.chain(cand, p).links[self.info.link_index].value
        value = self._stable_functional(cand, p.weights) / denom if denom > 0.0 else 0.0
        if value > 1.0 + RATIO_GUARD:
            raise SoundnessError(
                f"target {self.target}: ratio {value!r} exceeds 1 + {RATIO_GUARD:g}; "
                "either the inequality or the implementation is broken",
                witness=self.witness(cand),
            )
        return value

    def witness(self, cand: dict) -> dict:
        return instance_document(
            self.space,
            weights=self._weights(cand),
            xs=cand["xs"],
            ys=cand.get("ys"),
            alphas=cand.get("alphas"),
            enclosures=self.enclosures,
            holder_p=HOLDER_P if self.spec.holder else None,
        )


def _climb(problem: _Problem, budget_slice: int, seed: int, restart_index: int) -> tuple[float, dict, int]:
    rng = np.random.default_rng([seed, restart_index])
    best = problem.initial(rng)
    best_ratio = problem.ratio(best)
    evals = 1
    sigma = 0.4
    rejects = 0
    while evals < budget_slice:
        prop = problem.propose(rng, best, sigma)
        value = problem.ratio(prop)
        evals += 1
        if value > best_ratio:
            best_ratio, best = value, prop
            rejects = 0
        else:
            rejects += 1
            if rejects >= 20:
                sigma = max(sigma * 0.5, 1e-9)
                rejects = 0
    return best_ratio, best, evals


def search(target: str, n: int, dim: int, budget: int, seed: int) -> SharpnessResult:
    """Maximize functional / bound for a named target ratio.

    Restarts of hypothesis-preserving hill climbing (multiplicative weight
    moves, Gaussian row moves with radial projection into the hypothesis
    ball, step halved after 20 consecutive rejections). Deterministic for
    fixed (target, n, dim, budget, seed).
    """
    if target not in TARGETS:
        raise ContractViolationError(f"unknown target {target!r}; valid: {', '.join(sorted(TARGETS))}")
    if n < 2:
        raise ContractViolationError("n must be >= 2")
    if dim < 1:
        raise ContractViolationError("dim must be >= 1")
    if budget < 1:
        raise ContractViolationError("budget must be >= 1")
    if seed < 0:
        raise ContractViolationError("seed must be >= 0")
    problem = _Problem(target, n, dim)
    best_ratio = -np.inf
    best_cand: dict | None = None
    done = 0
    restart = 0
    while done < budget:
        slice_budget = min(RESTART_SIZE, budget - done)
        ratio, cand, used = _climb(problem, slice_budget, seed, restart)
        if ratio > best_ratio:
            best_ratio, best_cand = ratio, cand
        done += used
        restart += 1
    return SharpnessResult(
        target=target,
        target_constant=TARGETS[target].constant,
        achieved_ratio=float(best_ratio),
        witness=problem.witness(best_cand),
        trials=done,
        seed=seed,
    )
