"""Numpy references for the row kernels and the enclosure fit.

Unlike the pure-Python sums of ``brute.py``, these reproduce the library's
results bit for bit, so they use numpy's own rounding: plain expressions with
one fresh temporary per step, as the library computed them before its row
passes were fused.
"""

import numpy as np


def reference_pairing(a, b, metric=None):
    """Row pairings as plain numpy expressions over one fresh product, on the whole arrays."""
    if np.iscomplexobj(a):
        b = np.conj(b) if metric is None else np.conj(b) * metric
        return np.einsum("...k,...k->...", a, b)
    prod = a * b
    if metric is not None:
        prod = prod * metric
    return prod.sum(axis=-1)


def reference_norms(rows, metric=None):
    """Row norms as plain numpy expressions over one fresh product; complex rows as their real view, C^d as
    R^(2d) with each metric weight repeated."""
    if np.iscomplexobj(rows):
        rows = np.ascontiguousarray(rows).view(np.float64)
        metric = None if metric is None else np.repeat(metric, 2)
    return np.sqrt(reference_pairing(rows, rows, metric))


def reference_fit(xs, metric=None, max_sweeps=200):
    """``(lo, hi, inflated)`` of the Ritter enclosure fit, one fresh temporary per step.

    Every distance pass builds ``xs - c`` and its product afresh, and the
    tight radius takes a pass of its own, so the library fit's fused passes
    must reproduce these bits.
    """
    xs = np.asarray(xs)
    i1 = int(np.argmax(reference_norms(xs - xs[0], metric)))
    d1 = reference_norms(xs - xs[i1], metric)
    i2 = int(np.argmax(d1))
    center = (xs[i1] + xs[i2]) / 2.0
    radius = float(d1[i2]) / 2.0
    for _ in range(max_sweeps):
        dists = reference_norms(xs - center, metric)
        far = int(np.argmax(dists))
        dmax = float(dists[far])
        if not dmax > radius:
            break
        new_radius = (radius + dmax) / 2.0
        center = center + (xs[far] - center) * ((dmax - new_radius) / dmax)
        radius = new_radius
    radius = float(reference_norms(xs - center, metric).max())
    u = xs[i2] - xs[i1]
    u = u / float(reference_norms(u, metric))
    pivot = u[int(np.argmax(np.abs(u) > 0.0))]
    u = u * (np.conj(pivot) / abs(pivot)) if np.iscomplexobj(xs) else u * np.sign(np.real(pivot))
    lo, hi = center - radius * u, center + radius * u
    mid = (lo + hi) / 2.0
    factor = float(reference_norms(xs - mid, metric).max()) / (float(reference_norms(hi - lo, metric)) / 2.0)
    if factor > 1.0:
        lo, hi = mid + (lo - mid) * factor, mid + (hi - mid) * factor
    return lo, hi, factor > 1.0
