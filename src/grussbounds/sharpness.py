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

The climb is defined one candidate at a time, and evaluated in stacks: the
random draws of a proposal do not depend on the candidate it moves, so a
restart draws up to ``BATCH`` proposals ahead, applies them to the best
candidate as one stack at the steps the one-at-a-time rule gives them, and
evaluates the stack with the chain's own gates and link formula over a
leading batch axis. The stack is cut at its first acceptance and the draws
after it are applied again to the new best candidate. Every ratio, witness and
trial count is that of the one-at-a-time climb, and a candidate past the cut,
which that climb would not have evaluated, never raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import CHAINS, _gated, bound_chebyshev
from .conditions import Enclosure
from .errors import ContractViolationError, SoundnessError
from .functionals import WeightedSequence, _Centered
from .instancefile import instance_document
from .space import BLOCK_ELEMS, ProbabilityVector, Space, _probability_rows

#: Candidate evaluations per restart.
RESTART_SIZE = 500

#: A ratio above 1 + this aborts the search (inequality violated).
RATIO_GUARD = 1e-9

#: Holder exponent of the forward-difference chains the search evaluates.
HOLDER_P = 2.0

#: Most proposals evaluated as one stack. Past an acceptance a stack's evaluations are wasted, which costs
#: more as candidates grow, so a stack holds about ``BATCH_ENTRIES`` entries per sequence, and at least two
#: candidates; one where a candidate has more than ``BLOCK_ELEMS`` entries.
BATCH = 16
BATCH_ENTRIES = 1024

#: Largest n * dim a search accepts. A candidate holds up to two n x dim float64 sequences (128 MiB each
#: at 2**24 entries), every proposal copies it (at that size a stack holds one), and ``initial`` draws each
#: row as an array of its own, about 100 bytes apiece (2 GB at dim 1); a larger size is refused before
#: anything is allocated.
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
    """Target-specific candidate handling for the hill climber.

    A candidate is a dict of arrays; a stack of K candidates is the same dict with a leading axis of K.
    Evaluation and moves are written once, for either.
    """

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
        self.batch = 1 if n * dim > BLOCK_ELEMS else min(BATCH, max(2, BATCH_ENTRIES // (n * dim)))

    # -- candidate construction -------------------------------------------

    def _ball_point(self, rng: np.random.Generator) -> np.ndarray:
        u = rng.standard_normal(self.dim)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            u = np.zeros(self.dim)
            u[0] = 1.0
            nrm = 1.0
        return (u / nrm) * rng.random() ** (1.0 / self.dim)

    def _project(self, rows: np.ndarray) -> np.ndarray:
        """(m, dim) ``rows`` pulled radially into the hypothesis ball; a row's distance is
        ``np.linalg.norm``'s, the square root of its dot with itself."""
        c = self.encl.center
        cap = self.encl.radius * (1.0 - 1e-12)
        d = rows - c
        dist = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
        out = dist > cap
        return np.where(out[:, None], c + d * (cap / np.where(out, dist, cap))[:, None], rows)

    def _normalize(self, cand: dict) -> dict:
        # the forward-difference ratio is shift- and scale-invariant in both
        # sequences; pinning them to centered unit scale keeps max||delta||
        # bounded away from zero, so the ratio never degenerates into
        # rounding noise the climber could chase
        if self.target != "fd_equal_weights_max":
            return cand
        # per candidate, the bits of mean(axis=0) and of np.linalg.norm(rows, axis=1).max()
        for key in ("xs", "ys"):
            rows = cand[key] - np.add.reduce(cand[key], axis=-2, keepdims=True) / self.n
            top = np.sqrt(np.maximum.reduce(np.add.reduce(rows * rows, axis=-1), axis=-1))[..., None, None]
            np.divide(rows, top, out=cand[key], where=top > 0.0)
        return cand

    def initial(self, rng: np.random.Generator) -> dict:
        cand: dict = {}
        if not self.spec.uniform:
            w = rng.exponential(size=self.n)
            cand["p"] = w / w.sum()
        cand["xs"] = np.array([self._ball_point(rng) for _ in range(self.n)])
        if "ys" in self.spec.sequences:
            ys = rng.standard_normal((self.n, self.dim))
            cand["ys"] = self._project(ys) if "y" in self.enclosures else ys
        if "alphas" in self.spec.sequences:
            cand["alphas"] = rng.standard_normal(self.n)
        return self._normalize(cand)

    def draw(self, rng: np.random.Generator) -> tuple:
        """One proposal's draws, in the generator's order: the block it moves ("p" the weights), its row
        (None for the weights) and the raw normals. None depends on a candidate or on the step."""
        if not self.spec.uniform and rng.random() < 0.35:
            return "p", None, rng.standard_normal(self.n)
        block = self.spec.sequences[int(rng.integers(len(self.spec.sequences), dtype=np.int64))]
        i = int(rng.integers(self.n, dtype=np.int64))
        return block, i, rng.standard_normal() if block == "alphas" else rng.standard_normal(self.dim)

    def apply(self, cand: dict, draws: list, sigmas: list) -> dict:
        """The stack of ``cand`` moved by each of ``draws`` at its step: multiplicative weight moves,
        Gaussian moves of one scalar or of one row, a row projected into its hypothesis ball."""
        stack = {key: a[None].repeat(len(draws), axis=0) for key, a in cand.items()}
        moves: dict = {}
        for k, ((block, i, z), sigma) in enumerate(zip(draws, sigmas)):
            moves.setdefault(block, []).append((k, i, z, sigma))
        for block, picked in moves.items():
            new = stack[block]
            ks, rows, z, step = zip(*picked)
            z, step = np.array(z), np.array(step)
            if block == "p":
                w = cand["p"] * np.exp(step[:, None] * z)
                new[ks,] = w / np.add.reduce(w, axis=-1, keepdims=True)
            elif block == "alphas":
                new[ks, rows] += step * z
            else:
                moved = cand[block][rows,] + step[:, None] * z
                new[ks, rows] = self._project(moved) if block == "xs" or "y" in self.enclosures else moved
        return self._normalize(stack)

    # -- evaluation ---------------------------------------------------------

    def _weights(self, cand: dict) -> ProbabilityVector:
        return self.uniform if self.spec.uniform else ProbabilityVector(cand["p"])

    def _weight_rows(self, cand: dict) -> tuple:
        """The weights of one candidate or of each of a stack, with the bits of :meth:`_weights`, and which are valid."""
        return (self.uniform.weights, True) if self.spec.uniform else _probability_rows(cand["p"])

    def _values(self, w: np.ndarray, cand: dict, check: bool) -> tuple:
        # the chain's gates guard the search, and of its links only the target's is evaluated. The
        # functional takes xs about the enclosure center, not their mean: the same value, but the
        # Cauchy-Schwarz steps of the bound then hold for the computed arrays themselves (numerator
        # and denominator share the identical centered rows), so rounding alone can never push the
        # ratio past 1; no target's link reads xs centered.
        reports, stats = _gated(self.spec.gates, self.space, w, cand, self.enclosures, check, HOLDER_P)
        stats["xs", "centered"] = _Centered(self.space, w, cand["xs"], self.encl.center)
        denom = self.spec.links[self.info.link_index].formula(stats)
        num = self.spec.functional[1](stats)
        return np.divide(num, denom, out=np.zeros(np.shape(num)), where=denom > 0.0), reports

    def ratio(self, cand: dict) -> float:
        w, ok = self._weight_rows(cand)
        if not ok:
            self._weights(cand)  # raises what the validation of the weights reports
        value = float(self._values(w, cand, True)[0])
        if value > 1.0 + RATIO_GUARD:
            raise SoundnessError(
                f"target {self.target}: ratio {value!r} exceeds 1 + {RATIO_GUARD:g}; "
                "either the inequality or the implementation is broken",
                witness=self.witness(cand),
            )
        return value

    def ratios(self, stack: dict):
        """The ratio of each candidate of ``stack``, in stream order, evaluated at once.

        A generator, so that a climb stops at the first candidate it accepts: one whose weights or
        gates fail, or whose ratio passes the guard, is evaluated alone by :meth:`ratio`, which
        raises as the candidate-by-candidate climb did, and only when the climb comes to it.
        """
        w, ok = self._weight_rows(stack)
        values, reports = self._values(w, stack, False)
        for report in reports:
            ok = ok & report.verdicts.all(axis=-1)
        ok = ok & (values <= 1.0 + RATIO_GUARD)
        for k, (value, valid) in enumerate(zip(values.tolist(), ok.tolist())):
            yield value if valid else self.ratio(_pick(stack, k))

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


def _pick(stack: dict, k: int) -> dict:
    """Candidate ``k`` of a stack (views of its arrays)."""
    return {key: a[k] for key, a in stack.items()}


def _climb(problem: _Problem, budget_slice: int, seed: int, restart_index: int) -> tuple[float, dict, int]:
    """One restart: a proposal replaces the best candidate when its ratio is higher, and the step halves
    after 20 rejections in a row. Up to ``problem.batch`` proposals are drawn ahead and applied as one
    stack, the k-th at the step it gets if the ones before it are rejected; the stack is cut at its first
    acceptance, and the draws after the cut go to the next stack, applied to the new best candidate.
    """
    rng = np.random.default_rng([seed, restart_index])
    best = problem.initial(rng)
    best_ratio = problem.ratio(best)
    evals, sigma, rejects, draws = 1, 0.4, 0, []
    while evals < budget_slice:
        draws += [problem.draw(rng) for _ in range(min(problem.batch, budget_slice - evals) - len(draws))]
        sigmas = []
        for _ in draws:
            sigmas.append(sigma)
            rejects += 1
            if rejects >= 20:
                sigma, rejects = max(sigma * 0.5, 1e-9), 0
        stack = problem.apply(best, draws, sigmas)
        for k, value in enumerate(problem.ratios(stack)):
            if value > best_ratio:
                best_ratio, best = value, _pick(stack, k)
                sigma, rejects = sigmas[k], 0
                break
        evals += k + 1
        draws = draws[k + 1:]
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
