"""Empirical probes of the best-possible constants in the bound chains.

Two tools:

* :func:`extremal_thm23` builds the exact two-point configuration (ys = xs,
  endpoints of the enclosure, equal weights) on which the first link of the
  "2.3" chain is attained with equality.

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

from .bounds import CHAINS, _gated, bound_chebyshev
from .conditions import Enclosure
from .errors import ContractViolationError, SoundnessError
from .functionals import WeightedSequence, _Centered
from .instancefile import instance_document
from .space import ProbabilityVector, Space

#: Candidate evaluations per restart.
RESTART_SIZE = 500

#: A ratio above 1 + this aborts the search (inequality violated).
RATIO_GUARD = 1e-9

#: Holder exponent of the forward-difference chains the search evaluates.
HOLDER_P = 2.0

#: Largest n * dim a search accepts. A candidate holds up to two n x dim float64 sequences (128 MiB each
#: at 2**24 entries), every proposal copies it, and ``initial`` draws each row as an array of its own, about
#: 100 bytes apiece (2 GB at dim 1); a larger size is refused before anything is allocated.
MAX_ENTRIES = 1 << 24


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


def extremal_thm23() -> SharpnessResult:
    """Exact equality configuration for the first link of the "2.3" chain.

    p = (1/2, 1/2) and endpoints 0, 1 on the real line: both sides equal
    1/4, so the ratio is 1.
    """
    space = Space(1)
    encl = Enclosure(space, [0.0], [1.0])
    pts = [encl.lo, encl.hi]
    ws = WeightedSequence(space, ProbabilityVector(np.array([0.5, 0.5])), xs=pts, ys=pts)
    chain = bound_chebyshev(encl, ws)
    ratio = chain.functional_value / chain.links[0].value
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
        self.encl = Enclosure(self.space, -e, e)  # bounds xs, and ys where the chain encloses them
        self.enclosures = {"x": self.encl, "y": self.encl} if "y" in self.spec.enclosures else {"x": self.encl}
        self.uniform = ProbabilityVector.uniform(n)

    # -- candidate construction -------------------------------------------

    def _ball_point(self, rng: np.random.Generator) -> np.ndarray:
        u = rng.standard_normal(self.dim)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            u = np.zeros(self.dim)
            u[0] = 1.0
            nrm = 1.0
        return (u / nrm) * rng.random() ** (1.0 / self.dim)

    def _project(self, row: np.ndarray) -> np.ndarray:
        c = self.encl.center
        cap = self.encl.radius * (1.0 - 1e-12)
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
        if "ys" in self.spec.sequences:
            ys = rng.standard_normal((self.n, self.dim))
            if "y" in self.enclosures:
                ys = np.array([self._project(row) for row in ys])
            cand["ys"] = ys
        if "alphas" in self.spec.sequences:
            cand["alphas"] = rng.standard_normal(self.n)
        return self._normalize(cand)

    def propose(self, rng: np.random.Generator, cand: dict, sigma: float) -> dict:
        new = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in cand.items()}
        if not self.spec.uniform and rng.random() < 0.35:
            w = new["p"] * np.exp(sigma * rng.standard_normal(self.n))
            new["p"] = w / w.sum()
            return new
        block = self.spec.sequences[int(rng.integers(len(self.spec.sequences)))]
        i = int(rng.integers(self.n))
        if block == "alphas":
            new["alphas"][i] += sigma * rng.standard_normal()
            return new
        row = new[block][i] + sigma * rng.standard_normal(self.dim)
        if block == "xs" or "y" in self.enclosures:
            row = self._project(row)
        new[block][i] = row
        return self._normalize(new)

    # -- evaluation ---------------------------------------------------------

    def _weights(self, cand: dict) -> ProbabilityVector:
        return self.uniform if self.spec.uniform else ProbabilityVector(cand["p"])

    def ratio(self, cand: dict) -> float:
        # the chain's gates guard the search, and of its links only the target's is evaluated. The
        # functional takes xs about the enclosure center, not their mean: the same value, but the
        # Cauchy-Schwarz steps of the bound then hold for the computed arrays themselves (numerator
        # and denominator share the identical centered rows), so rounding alone can never push the
        # ratio past 1; no target's link reads xs centered.
        p = self._weights(cand)
        _, stats = _gated(self.spec.gates, self.space, p, cand, self.enclosures, True, HOLDER_P)
        stats["xs", "centered"] = _Centered(self.space, p.weights, cand["xs"], self.encl.center)
        denom = self.spec.links[self.info.link_index].formula(stats)
        value = self.spec.functional[1](stats) / denom if denom > 0.0 else 0.0
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
    if n * dim > MAX_ENTRIES:
        raise ContractViolationError(f"n * dim must be <= {MAX_ENTRIES}, got {n} * {dim}")
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
