"""Independent direct-summation oracles, pure Python on purpose.

These expand the defining sums term by term with scalar arithmetic and no
numpy, so they share no code path with the library implementations they
check.
"""

import math


def brute_inner(u, v, metric=None):
    total = 0j
    for k in range(len(u)):
        m = 1.0 if metric is None else float(metric[k])
        total += m * complex(u[k]) * complex(v[k]).conjugate()
    return total


def brute_mean(p, xs):
    n = len(p)
    dim = len(xs[0])
    return [sum(float(p[i]) * complex(xs[i][k]) for i in range(n)) for k in range(dim)]


def brute_chebyshev(p, xs, ys, metric=None):
    n = len(p)
    first = 0j
    for i in range(n):
        first += float(p[i]) * brute_inner(xs[i], ys[i], metric)
    return first - brute_inner(brute_mean(p, xs), brute_mean(p, ys), metric)


def brute_gruss(p, alphas, xs):
    n = len(p)
    dim = len(xs[0])
    first = [sum(float(p[i]) * complex(alphas[i]) * complex(xs[i][k]) for i in range(n)) for k in range(dim)]
    abar = sum(float(p[i]) * complex(alphas[i]) for i in range(n))
    mean = brute_mean(p, xs)
    return [first[k] - abar * mean[k] for k in range(dim)]


def brute_variance(p, xs, metric=None):
    n = len(p)
    second = 0.0
    for i in range(n):
        second += float(p[i]) * brute_inner(xs[i], xs[i], metric).real
    mean = brute_mean(p, xs)
    return second - brute_inner(mean, mean, metric).real


def brute_pair_index_sq(p):
    """sum_{j<i} p_i p_j (i - j)^2; equals index_variance(p) for every p."""
    n = len(p)
    return math.fsum(float(p[i]) * float(p[j]) * (i - j) ** 2 for i in range(n) for j in range(i))


def brute_pair_index(p):
    """sum_{j<i} p_i p_j (i - j), term by term."""
    n = len(p)
    return math.fsum(float(p[i]) * float(p[j]) * (i - j) for i in range(n) for j in range(i))
