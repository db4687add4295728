"""The sharpness search one candidate at a time: the reference the batched climb must reproduce.

Each proposal copies the best candidate, draws its moves and is evaluated alone by
``_Problem.ratio``, and the step size follows the 20-rejection rule after every evaluation.
Candidate construction is written out here one candidate at a time, apart from the library's
stacked construction, so ``search`` below shares only the one-candidate ratio and the witness
with ``grussbounds.sharpness.search``, whose achieved ratio, witness and trial count it must
equal bit for bit.
"""

import numpy as np

from grussbounds.sharpness import RESTART_SIZE, _Problem


def _ball_point(problem, rng):
    u = rng.standard_normal(problem.dim)
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0:
        u = np.zeros(problem.dim)
        u[0] = 1.0
        nrm = 1.0
    return (u / nrm) * rng.random() ** (1.0 / problem.dim)


def _project(problem, row):
    c = problem.encl.center
    cap = problem.encl.radius * (1.0 - 1e-12)
    dist = float(np.linalg.norm(row - c))
    if dist > cap:
        row = c + (row - c) * (cap / dist)
    return row


def _normalize(problem, cand):
    if problem.target != "fd_equal_weights_max":
        return cand
    for key in ("xs", "ys"):
        rows = cand[key] - cand[key].mean(axis=0)
        top = float(np.linalg.norm(rows, axis=1).max())
        if top > 0.0:
            cand[key] = rows / top
    return cand


def initial(problem, rng):
    cand = {}
    if not problem.spec.uniform:
        w = rng.exponential(size=problem.n)
        cand["p"] = w / w.sum()
    cand["xs"] = np.array([_ball_point(problem, rng) for _ in range(problem.n)])
    if "ys" in problem.spec.sequences:
        ys = rng.standard_normal((problem.n, problem.dim))
        if "y" in problem.enclosures:
            ys = np.array([_project(problem, row) for row in ys])
        cand["ys"] = ys
    if "alphas" in problem.spec.sequences:
        cand["alphas"] = rng.standard_normal(problem.n)
    return _normalize(problem, cand)


def propose(problem, rng, cand, sigma):
    new = {k: v.copy() for k, v in cand.items()}
    if not problem.spec.uniform and rng.random() < 0.35:
        w = new["p"] * np.exp(sigma * rng.standard_normal(problem.n))
        new["p"] = w / w.sum()
        return new
    block = problem.spec.sequences[int(rng.integers(len(problem.spec.sequences)))]
    i = int(rng.integers(problem.n))
    if block == "alphas":
        new["alphas"][i] += sigma * rng.standard_normal()
        return new
    row = new[block][i] + sigma * rng.standard_normal(problem.dim)
    if block == "xs" or "y" in problem.enclosures:
        row = _project(problem, row)
    new[block][i] = row
    return _normalize(problem, new)


def climb(problem, budget_slice, seed, restart_index):
    rng = np.random.default_rng([seed, restart_index])
    best = initial(problem, rng)
    best_ratio = problem.ratio(best)
    evals = 1
    sigma = 0.4
    rejects = 0
    while evals < budget_slice:
        prop = propose(problem, rng, best, sigma)
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


def search(target, n, dim, budget, seed):
    """(achieved ratio, witness document, trials) of the one-candidate-at-a-time search."""
    problem = _Problem(target, n, dim)
    best_ratio, best_cand, done, restart = -np.inf, None, 0, 0
    while done < budget:
        ratio, cand, used = climb(problem, min(RESTART_SIZE, budget - done), seed, restart)
        if ratio > best_ratio:
            best_ratio, best_cand = ratio, cand
        done += used
        restart += 1
    return float(best_ratio), problem.witness(best_cand), done
