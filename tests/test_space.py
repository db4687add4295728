import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grussbounds import (
    ContractViolationError,
    DegenerateInputError,
    DimensionMismatchError,
    ProbabilityVector,
    Space,
    forward_differences,
    inner,
    norm,
)
from brute import brute_inner
from conftest import random_space, random_vector
from grussbounds.space import COMPLEX, REAL, pairing


class TestSpace:
    def test_rejects_bad_dim(self):
        with pytest.raises(DimensionMismatchError):
            Space(0)
        with pytest.raises(DimensionMismatchError):
            Space(-3)

    def test_rejects_bad_field(self):
        with pytest.raises(ContractViolationError):
            Space(2, "quaternion")

    def test_rejects_bad_metric(self):
        with pytest.raises(ContractViolationError):
            Space(2, REAL, metric=[1.0, 0.0])
        with pytest.raises(ContractViolationError):
            Space(2, REAL, metric=[1.0, -1.0])
        with pytest.raises(DimensionMismatchError):
            Space(2, REAL, metric=[1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            Space(2, REAL, metric=[[1.0, 0.0], [0.0, 1.0]])  # full Gram matrix is out

    def test_vector_validation(self):
        sp = Space(2)
        with pytest.raises(DimensionMismatchError):
            sp.vector([1.0])
        with pytest.raises(ContractViolationError):
            sp.vector([1.0, np.nan])
        with pytest.raises(ContractViolationError):
            sp.vector([1.0, np.inf])
        with pytest.raises(DimensionMismatchError):
            sp.vector([1.0 + 1j, 0.0])  # complex coordinates in a real space


class TestInner:
    def test_orthogonal(self):
        sp = Space(2)
        assert inner(sp, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_complex_self(self):
        sp = Space(1, COMPLEX)
        assert inner(sp, [1j], [1j]) == pytest.approx(1.0)

    def test_metric_weighting(self):
        sp = Space(1, REAL, metric=[2.0])
        assert inner(sp, [3.0], [4.0]) == pytest.approx(24.0)

    def test_dimension_mismatch(self):
        sp = Space(2)
        with pytest.raises(DimensionMismatchError):
            inner(sp, [1.0, 0.0], [1.0])


class TestPairing:
    def test_rows_match_brute_force(self, rng):
        for _ in range(100):
            space = random_space(rng, max_dim=5, metric_prob=0.5)
            n = int(rng.integers(1, 6))
            a = np.array([random_vector(rng, space) for _ in range(n)])
            b = np.array([random_vector(rng, space) for _ in range(n)])
            per_row = pairing(space, a, b)
            assert per_row.shape == (n,)
            for i in range(n):
                expected = brute_inner(a[i], b[i], space.metric)
                assert per_row[i] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_vectors_give_the_inner_product(self, rng):
        space = Space(2, COMPLEX, metric=[0.5, 3.0])
        u, v = random_vector(rng, space), random_vector(rng, space)
        assert pairing(space, u, v) == inner(space, u, v)
        assert np.real(pairing(space, u, u)) == pytest.approx(norm(space, u) ** 2, rel=1e-15)


class TestNorm:
    def test_zero(self):
        sp = Space(3)
        assert norm(sp, sp.zero()) == 0.0

    def test_pythagorean(self):
        assert norm(Space(2), [3.0, 4.0]) == pytest.approx(5.0)

    def test_complex_modulus(self):
        assert norm(Space(1, COMPLEX), [3.0 + 4.0j]) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            norm(Space(2), [1.0])


class TestForwardDifferences:
    def test_basic(self):
        out = forward_differences(np.array([[0.0], [1.0], [3.0]]))
        assert np.array_equal(out, [[1.0], [2.0]])

    def test_constant(self):
        out = forward_differences(np.tile([2.0, 3.0], (4, 1)))
        assert np.all(out == 0.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            forward_differences(np.array([[1.0]]))


class TestProbabilityVector:
    def test_renormalizes_small_deviation(self):
        p = ProbabilityVector([0.5, 0.5 + 5e-10])
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_deviation(self):
        with pytest.raises(ContractViolationError):
            ProbabilityVector([0.5, 0.3])

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            ProbabilityVector([1.2, -0.2])

    def test_from_nonnegative(self):
        p = ProbabilityVector.from_nonnegative([2.0, 6.0])
        assert p.weights == pytest.approx([0.25, 0.75])

    def test_from_nonnegative_zero_total(self):
        with pytest.raises(DegenerateInputError):
            ProbabilityVector.from_nonnegative([0.0, 0.0])

    def test_uniform(self):
        assert ProbabilityVector.uniform(4).weights == pytest.approx([0.25] * 4)

    def test_immutable(self):
        p = ProbabilityVector.uniform(3)
        with pytest.raises(ValueError):
            p.weights[0] = 2.0


# ---------------------------------------------------------------------------
# algebraic properties, random over both fields
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def space_with_vectors(draw, count=2):
    dim = draw(st.integers(1, 5))
    is_complex = draw(st.booleans())
    metric = None
    if draw(st.booleans()):
        metric = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim)))
    space = Space(dim, COMPLEX if is_complex else REAL, metric)
    vectors = []
    for _ in range(count):
        re = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
        if is_complex:
            im = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
            vectors.append(re + 1j * im)
        else:
            vectors.append(re)
    return space, vectors


@given(space_with_vectors(count=2))
@settings(max_examples=200, deadline=None)
def test_conjugate_symmetry(data):
    space, (u, v) = data
    lhs = inner(space, u, v)
    rhs = np.conj(inner(space, v, u))
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(space_with_vectors(count=2))
@settings(max_examples=200, deadline=None)
def test_cauchy_schwarz(data):
    space, (u, v) = data
    scale = max(1.0, norm(space, u) * norm(space, v))
    assert abs(inner(space, u, v)) <= norm(space, u) * norm(space, v) + 1e-10 * scale


@given(space_with_vectors(count=3), finite, finite)
@settings(max_examples=200, deadline=None)
def test_linearity_first_slot(data, are, aim):
    space, (u, w, v) = data
    a = complex(are, aim) if space.is_complex else are
    lhs = inner(space, a * u + w, v)
    rhs = a * inner(space, u, v) + inner(space, w, v)
    scale = max(1.0, abs(a) * norm(space, u) * norm(space, v) + norm(space, w) * norm(space, v))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_positive_definite(rng):
    from conftest import random_space, random_vector

    for _ in range(100):
        space = random_space(rng, max_dim=6)
        u = random_vector(rng, space)
        self_ip = inner(space, u, u)
        assert abs(np.imag(self_ip)) <= 1e-12 * max(1.0, abs(self_ip))
        assert np.real(self_ip) >= 0.0
    assert norm(Space(3), np.zeros(3)) == 0.0
