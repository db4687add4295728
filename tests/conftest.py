import numpy as np
import pytest

from grussbounds import Enclosure, ProbabilityVector, Space
from grussbounds.space import COMPLEX, REAL, norm


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


@pytest.fixture
def report_calls(monkeypatch):
    """The kinds of the condition slacks measured while the test runs."""
    from grussbounds import conditions

    calls = []

    def counted(encl, xs, kind, slacks=conditions._slacks):
        calls.append(kind)
        return slacks(encl, xs, kind)

    monkeypatch.setattr(conditions, "_slacks", counted)
    return calls


def random_space(rng, max_dim=8, field=None, metric_prob=0.25):
    dim = int(rng.integers(1, max_dim + 1))
    if field is None:
        field = COMPLEX if rng.random() < 0.5 else REAL
    metric = rng.uniform(0.2, 3.0, dim) if rng.random() < metric_prob else None
    return Space(dim, field, metric)


def random_vector(rng, space, scale=1.0):
    v = rng.standard_normal(space.dim) * scale
    if space.is_complex:
        v = v + 1j * rng.standard_normal(space.dim) * scale
    return v.astype(space.dtype)


def random_prob(rng, n):
    w = rng.exponential(size=n)
    return ProbabilityVector(w / w.sum())


def random_enclosure(rng, space, scale=1.0):
    lo = random_vector(rng, space, scale)
    while True:
        hi = lo + random_vector(rng, space, scale)
        if norm(space, hi - lo) > 1e-6:
            return Enclosure(space, lo, hi)


def sample_in_ball(rng, space, encl, n, boundary_prob=0.15):
    """Points satisfying the ball condition of ``encl`` by construction."""
    center, radius = encl.center, encl.radius
    rows = []
    for _ in range(n):
        u = random_vector(rng, space)
        nu = norm(space, u)
        while nu == 0.0:
            u = random_vector(rng, space)
            nu = norm(space, u)
        t = 1.0 if rng.random() < boundary_prob else rng.random()
        rows.append(center + u * (t * radius / nu))
    return np.array(rows)


def random_disc(rng, complex_field=True):
    if complex_field:
        a = complex(rng.standard_normal(), rng.standard_normal())
        while True:
            A = a + complex(rng.standard_normal(), rng.standard_normal())
            if abs(A - a) > 1e-6:
                return a, A
    a = float(rng.standard_normal())
    return a, a + float(rng.uniform(0.1, 3.0))


def sample_in_disc(rng, a, A, n, complex_field=True):
    """Scalars satisfying the disc condition by construction."""
    mid = (complex(a) + complex(A)) / 2.0
    half = abs(complex(A) - complex(a)) / 2.0
    out = []
    for _ in range(n):
        t = rng.random()
        if complex_field:
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            out.append(mid + t * half * phase)
        else:
            out.append((mid + (2.0 * t - 1.0) * half).real)
    return np.array(out, dtype=np.complex128 if complex_field else np.float64)
