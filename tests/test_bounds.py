import math
import tracemalloc

import numpy as np
import pytest

from brute import brute_pair_index, brute_pair_index_sq
from conftest import (
    random_disc,
    random_enclosure,
    random_prob,
    random_space,
    random_vector,
    sample_in_ball,
    sample_in_disc,
)
from grussbounds import (
    ContractViolationError,
    DegenerateInputError,
    Enclosure,
    HypothesisError,
    ProbabilityVector,
    Space,
    WeightedSequence,
    bound_chebyshev,
    bound_chebyshev_gruss,
    bound_complex_sequence,
    bound_forward_difference,
    bound_forward_difference_self,
    bound_scalar_weighted,
    bound_variance,
    equal_weight_coefficients,
    half_complementary_weight,
    index_variance,
    pair_index_coefficient,
    alpha_variance,
    variance,
)
from grussbounds.space import COMPLEX, REAL


def two_point_sharp():
    sp = Space(1)
    pts = np.array([[0.0], [1.0]])
    p = ProbabilityVector([0.5, 0.5])
    return sp, p, pts, Enclosure(sp, [0.0], [1.0])


def ball_ws(rng, space, encl, n, with_alphas=False, disc=None):
    xs = sample_in_ball(rng, space, encl, n)
    ys = np.array([random_vector(rng, space, 2.0) for _ in range(n)])
    alphas = None
    if with_alphas:
        alphas = sample_in_disc(rng, disc[0], disc[1], n, complex_field=space.is_complex)
        alphas = alphas.astype(space.dtype)
    return WeightedSequence(space, random_prob(rng, n), xs=xs, ys=None if with_alphas else ys, alphas=alphas)


class TestChainChebyshev:
    def test_two_point_equality(self):
        sp, p, pts, encl = two_point_sharp()
        chain = bound_chebyshev(encl, WeightedSequence(sp, p, xs=pts, ys=pts))
        assert chain.values() == pytest.approx((0.25, 0.25, 0.25))
        assert chain.holds()
        assert chain.equation == "2.3"

    def test_constant_ys(self, rng):
        sp = Space(2)
        encl = Enclosure(sp, [0.0, 0.0], [1.0, 1.0])
        xs = sample_in_ball(rng, sp, encl, 4)
        ws = WeightedSequence(sp, ProbabilityVector.uniform(4), xs=xs, ys=np.tile([1.0, 2.0], (4, 1)))
        chain = bound_chebyshev(encl, ws)
        # the std link goes through a square root, which amplifies the
        # cancellation noise of the second-moment difference to ~1e-8
        assert chain.functional_value == pytest.approx(0.0, abs=1e-12)
        assert chain.links[0].value == pytest.approx(0.0, abs=1e-12)
        assert chain.links[1].value == pytest.approx(0.0, abs=1e-7)

    def test_random_ordering(self, rng):
        for _ in range(200):
            space = random_space(rng, max_dim=5)
            encl = random_enclosure(rng, space)
            n = int(rng.integers(1, 8))
            ws = ball_ws(rng, space, encl, n)
            chain = bound_chebyshev(encl, ws)
            assert chain.holds(), chain.values()

    def test_hypothesis_violation_raises(self):
        sp = Space(1)
        encl = Enclosure(sp, [0.0], [1.0])
        ws = WeightedSequence(sp, ProbabilityVector([0.5, 0.5]), xs=np.array([[0.0], [5.0]]), ys=np.array([[0.0], [1.0]]))
        with pytest.raises(HypothesisError) as err:
            bound_chebyshev(encl, ws)
        assert err.value.report is not None
        assert "index 1" in str(err.value)

    def test_unchecked_escape_hatch(self):
        sp = Space(1)
        encl = Enclosure(sp, [0.0], [1.0])
        ws = WeightedSequence(sp, ProbabilityVector([0.5, 0.5]), xs=np.array([[0.0], [5.0]]), ys=np.array([[0.0], [1.0]]))
        chain = bound_chebyshev(encl, ws, check=False)
        assert not chain.hypothesis_verified
        assert len(chain.links) == 2


class TestChainChebyshevGruss:
    def test_two_point_full_equality(self):
        sp, p, pts, encl = two_point_sharp()
        chain = bound_chebyshev_gruss(encl, encl, WeightedSequence(sp, p, xs=pts, ys=pts))
        assert chain.values() == pytest.approx((0.25, 0.25, 0.25, 0.25))
        assert chain.equation == "2.7"
        assert chain.links[-1].equation == "1.4"

    def test_std_below_half_diameter(self, rng):
        # the step from the std link to the quarter link: std(y) <= diam(y)/2
        for _ in range(150):
            space = random_space(rng, max_dim=5)
            encl_y = random_enclosure(rng, space)
            n = int(rng.integers(1, 8))
            ys = sample_in_ball(rng, space, encl_y, n)
            p = random_prob(rng, n)
            assert math.sqrt(variance(space, p, ys)) <= 0.5 * encl_y.diameter + 1e-10

    def test_constant_xs(self, rng):
        sp = Space(1)
        encl = Enclosure(sp, [0.0], [1.0])
        ws = WeightedSequence(
            sp, ProbabilityVector.uniform(3), xs=np.tile([0.5], (3, 1)), ys=np.array([[0.0], [0.4], [1.0]])
        )
        chain = bound_chebyshev_gruss(encl, encl, ws)
        assert chain.functional_value == pytest.approx(0.0, abs=1e-12)
        assert chain.holds()

    def test_random_ordering(self, rng):
        for _ in range(200):
            space = random_space(rng, max_dim=5)
            encl_x = random_enclosure(rng, space)
            encl_y = random_enclosure(rng, space)
            n = int(rng.integers(1, 8))
            ws = WeightedSequence(
                space,
                random_prob(rng, n),
                xs=sample_in_ball(rng, space, encl_x, n),
                ys=sample_in_ball(rng, space, encl_y, n),
            )
            chain = bound_chebyshev_gruss(encl_x, encl_y, ws)
            assert chain.holds(), chain.values()


class TestChainVariance:
    def test_two_point_equality(self):
        sp, p, pts, encl = two_point_sharp()
        chain = bound_variance(encl, p, pts)
        assert chain.values() == pytest.approx((0.25, 0.25, 0.25))
        assert chain.equation == "2.8"
        assert chain.links[-1].equation == "1.5"

    def test_constant_xs_with_valid_enclosure(self):
        sp = Space(1)
        encl = Enclosure(sp, [0.0], [1.0])
        chain = bound_variance(encl, ProbabilityVector.uniform(3), np.tile([0.5], (3, 1)))
        assert chain.functional_value == pytest.approx(0.0, abs=1e-14)
        assert chain.holds()

    def test_random_ordering(self, rng):
        for _ in range(200):
            space = random_space(rng, max_dim=5)
            encl = random_enclosure(rng, space)
            n = int(rng.integers(1, 8))
            xs = sample_in_ball(rng, space, encl, n)
            chain = bound_variance(encl, random_prob(rng, n), xs)
            assert chain.holds(), chain.values()


class TestChainScalarWeighted:
    def test_two_point_equality(self):
        sp, p, pts, encl = two_point_sharp()
        ws = WeightedSequence(sp, p, xs=pts, alphas=np.array([0.0, 1.0]))
        chain = bound_scalar_weighted(encl, ws, disc=(0.0, 1.0))
        assert chain.values() == pytest.approx((0.25, 0.25, 0.25, 0.25))
        assert chain.equation == "2.11"
        assert chain.links[-1].equation == "1.2"

    def test_without_disc(self):
        sp, p, pts, encl = two_point_sharp()
        ws = WeightedSequence(sp, p, xs=pts, alphas=np.array([0.0, 1.0]))
        chain = bound_scalar_weighted(encl, ws)
        assert chain.equation == "2.9"
        assert len(chain.links) == 2

    def test_constant_alphas(self, rng):
        sp = Space(2)
        encl = Enclosure(sp, [0.0, 0.0], [1.0, 0.0])
        xs = sample_in_ball(rng, sp, encl, 4)
        ws = WeightedSequence(sp, ProbabilityVector.uniform(4), xs=xs, alphas=np.full(4, 3.0))
        chain = bound_scalar_weighted(encl, ws)
        assert chain.values() == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_random_complex_ordering(self, rng):
        for _ in range(200):
            space = random_space(rng, max_dim=4, field=COMPLEX)
            encl = random_enclosure(rng, space)
            disc = random_disc(rng, complex_field=True)
            n = int(rng.integers(1, 8))
            ws = ball_ws(rng, space, encl, n, with_alphas=True, disc=disc)
            chain = bound_scalar_weighted(encl, ws, disc=disc)
            assert chain.holds(), chain.values()
            assert chain.hypothesis_verified

    def test_disc_hypothesis_violation(self):
        sp, p, pts, encl = two_point_sharp()
        ws = WeightedSequence(sp, p, xs=pts, alphas=np.array([0.0, 9.0]))
        with pytest.raises(HypothesisError):
            bound_scalar_weighted(encl, ws, disc=(0.0, 1.0))


class TestChainComplex:
    def test_two_point_equality(self):
        p = ProbabilityVector([0.5, 0.5])
        chain = bound_complex_sequence(0.0, 1.0, p, [0.0, 1.0])
        assert chain.values() == pytest.approx((0.25, 0.25, 0.25))
        assert chain.equation == "R2.7"

    def test_constant_alphas(self):
        chain = bound_complex_sequence(0.0, 2.0, ProbabilityVector.uniform(3), [1.0, 1.0, 1.0])
        assert chain.values() == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_random_complex_disc(self, rng):
        for _ in range(200):
            disc = random_disc(rng, complex_field=True)
            n = int(rng.integers(1, 9))
            alphas = sample_in_disc(rng, disc[0], disc[1], n)
            chain = bound_complex_sequence(disc[0], disc[1], random_prob(rng, n), alphas)
            assert chain.holds(), chain.values()

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisError):
            bound_complex_sequence(-1j, 1j, ProbabilityVector.uniform(2), [0.0, 5.0])


class TestForwardDifference:
    def test_two_point_coefficients(self):
        # at n=2, every weight coefficient collapses to p1 p2 = 1/4
        sp = Space(1)
        p = ProbabilityVector([0.5, 0.5])
        ws = WeightedSequence(sp, p, xs=np.array([[0.0], [1.0]]), ys=np.array([[0.0], [1.0]]))
        chain = bound_forward_difference(ws, holder_p=2.0)
        assert chain.functional_value == pytest.approx(0.25)
        for link in chain.links:
            assert link.value == pytest.approx(0.25)
        assert not chain.ordered
        assert chain.holds()

    def test_equal_weight_coefficients_match_closed_forms(self):
        for n in range(2, 51):
            p = ProbabilityVector.uniform(n)
            c1, c2, c3 = equal_weight_coefficients(n)
            assert abs(index_variance(p) - c1) <= 1e-12 * c1
            assert abs(pair_index_coefficient(p) - c2) <= 1e-12 * c2
            assert abs(half_complementary_weight(p) - c3) <= 1e-12 * c3

    def test_pair_index_matches_brute_force(self, rng):
        for n in range(1, 41):
            p = random_prob(rng, n)
            expected = brute_pair_index(p.weights)
            assert abs(pair_index_coefficient(p) - expected) <= 1e-12 * expected

    def test_pair_index_linear_memory(self):
        # the quadratic form builds n x n float arrays: over 200 MB at n = 3000
        p = ProbabilityVector.uniform(3000)
        tracemalloc.start()
        try:
            pair_index_coefficient(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_index_variance_identity(self, rng):
        # sum i^2 p_i - (sum i p_i)^2 == sum_{j<i} p_i p_j (i-j)^2
        for _ in range(200):
            n = int(rng.integers(1, 30))
            p = random_prob(rng, n)
            lhs = index_variance(p)
            rhs = brute_pair_index_sq(p.weights)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_constant_xs(self, rng):
        sp = Space(2)
        ws = WeightedSequence(
            sp,
            ProbabilityVector.uniform(4),
            xs=np.tile([1.0, 1.0], (4, 1)),
            ys=np.array([random_vector(rng, sp) for _ in range(4)]),
        )
        chain = bound_forward_difference(ws)
        assert chain.functional_value == pytest.approx(0.0, abs=1e-12)
        assert chain.holds()

    @pytest.mark.parametrize("holder_p", [1.5, 2.0, 3.0, 10.0, math.inf])
    def test_holder_family_dominates(self, rng, holder_p):
        for _ in range(60):
            space = random_space(rng, max_dim=4)
            n = int(rng.integers(2, 9))
            ws = WeightedSequence(
                space,
                random_prob(rng, n),
                xs=np.array([random_vector(rng, space, 2.0) for _ in range(n)]),
                ys=np.array([random_vector(rng, space, 2.0) for _ in range(n)]),
            )
            chain = bound_forward_difference(ws, holder_p=holder_p)
            assert np.isfinite([l.value for l in chain.links]).all()
            assert chain.holds(), (holder_p, chain.values())

    def test_bad_holder_exponent(self):
        sp = Space(1)
        ws = WeightedSequence(
            sp, ProbabilityVector([0.5, 0.5]), xs=np.array([[0.0], [1.0]]), ys=np.array([[0.0], [1.0]])
        )
        with pytest.raises(ContractViolationError):
            bound_forward_difference(ws, holder_p=1.0)

    def test_n1_rejected(self):
        sp = Space(1)
        ws = WeightedSequence(sp, ProbabilityVector([1.0]), xs=np.array([[0.0]]), ys=np.array([[1.0]]))
        with pytest.raises(DegenerateInputError):
            bound_forward_difference(ws)


class TestForwardDifferenceSelf:
    def test_two_point_value(self):
        sp = Space(1)
        chain = bound_forward_difference_self(sp, ProbabilityVector([0.5, 0.5]), np.array([[0.0], [1.0]]))
        assert chain.functional_value == pytest.approx(0.25)
        assert chain.links[0].value == pytest.approx(0.25)  # (n^2-1)/12 = 1/4 at n=2
        assert chain.equation == "1.8"

    def test_constant(self):
        sp = Space(1)
        chain = bound_forward_difference_self(sp, ProbabilityVector.uniform(3), np.tile([2.0], (3, 1)))
        assert chain.values() == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-14)

    def test_random_dominance(self, rng):
        for _ in range(200):
            space = random_space(rng, max_dim=5)
            n = int(rng.integers(2, 9))
            xs = np.array([random_vector(rng, space, 2.0) for _ in range(n)])
            chain = bound_forward_difference_self(space, random_prob(rng, n), xs, holder_p=2.0)
            assert chain.holds(), chain.values()

    def test_n1_rejected(self):
        with pytest.raises(DegenerateInputError):
            bound_forward_difference_self(Space(1), ProbabilityVector([1.0]), np.array([[0.0]]))


class TestFittedEnclosureChains:
    def test_fit_then_chain_never_errors(self, rng):
        from grussbounds import fit_enclosure

        for _ in range(150):
            space = random_space(rng, max_dim=5)
            n = int(rng.integers(2, 9))
            xs = np.array([random_vector(rng, space, 2.0) for _ in range(n)])
            ys = np.array([random_vector(rng, space, 2.0) for _ in range(n)])
            encl = fit_enclosure(space, xs)
            ws = WeightedSequence(space, random_prob(rng, n), xs=xs, ys=ys)
            chain = bound_chebyshev(encl, ws)
            assert chain.hypothesis_verified
            assert chain.holds(), chain.values()


class TestLargeOffset:
    """Unit spread at offset 1e8: raw second-moment differences cancel to 0 here."""

    lo, hi = 1e8, 1e8 + 1.0

    def expected(self):
        # two points with weights 1/2: variance = p1 p2 (x2 - x1)^2
        return 0.5 * 0.5 * (self.hi - self.lo) ** 2

    def test_variance(self):
        v = variance(Space(1), ProbabilityVector([0.5, 0.5]), np.array([[self.lo], [self.hi]]))
        assert v == pytest.approx(self.expected(), rel=1e-12)

    def test_alpha_variance(self):
        v = alpha_variance(ProbabilityVector([0.5, 0.5]), np.array([self.lo, self.hi]))
        assert v == pytest.approx(self.expected(), rel=1e-12)

    def test_index_variance(self):
        # the index variance is the variance of the indices: mass on n-1 and n
        n = 10**6
        w = np.zeros(n)
        w[-2:] = (0.3, 0.7)
        assert index_variance(ProbabilityVector(w)) == pytest.approx(0.3 * 0.7, rel=1e-12)

    def test_chebyshev_chain(self):
        sp = Space(1)
        pts = np.array([[self.lo], [self.hi]])
        ws = WeightedSequence(sp, ProbabilityVector([0.5, 0.5]), xs=pts, ys=pts)
        chain = bound_chebyshev(Enclosure(sp, [self.lo], [self.hi]), ws)
        assert chain.values() == pytest.approx((self.expected(),) * 3, rel=1e-12)
        assert chain.holds()


class TestOverflow:
    def test_non_finite_chain_is_a_contract_violation(self):
        sp = Space(2)
        pts = np.array([[1e200, 0.0], [0.0, 1e200]])
        ws = WeightedSequence(sp, ProbabilityVector([0.5, 0.5]), xs=pts, ys=pts)
        with np.errstate(over="ignore"), pytest.raises(ContractViolationError, match="overflow"):
            bound_forward_difference(ws)


class TestValidateOnce:
    @pytest.fixture
    def matrix_calls(self, monkeypatch):
        calls = []
        original = Space.matrix

        def counting(space, rows):
            calls.append(space)
            return original(space, rows)

        monkeypatch.setattr(Space, "matrix", counting)
        return calls

    def test_builders_reuse_validated_arrays(self, rng, matrix_calls):
        sp = Space(2)
        encl = Enclosure(sp, [-1.0, 0.0], [1.0, 0.0])
        xs = sample_in_ball(rng, sp, encl, 6)
        ws = WeightedSequence(sp, random_prob(rng, 6), xs=xs, ys=xs[::-1])
        matrix_calls.clear()
        bound_chebyshev(encl, ws)
        assert len(matrix_calls) == 0
        bound_chebyshev_gruss(encl, encl, ws)
        assert len(matrix_calls) == 0
        bound_variance(encl, ws.p, xs)
        assert len(matrix_calls) == 1


def test_complex_sequence_validates_alphas_once(monkeypatch):
    calls = []
    original = Space.scalars

    def counting(space, values):
        calls.append(space)
        return original(space, values)

    monkeypatch.setattr(Space, "scalars", counting)
    bound_complex_sequence(0.0, 2.0, ProbabilityVector.uniform(3), [0.5, 1.0, 1.5])
    assert len(calls) == 1 and calls[0].is_complex
