import math
import warnings

import numpy as np
import pytest

from conftest import random_space, random_vector
from grussbounds import (
    ContractViolationError,
    ConvexOracle,
    Enclosure,
    HypothesisError,
    ORACLE_FACTORIES,
    Space,
    get_oracle,
    gradient_check,
    inner,
    reverse_jensen,
)
from grussbounds.space import COMPLEX, REAL, pairing


def real_space(rng, max_dim=4):
    return random_space(rng, max_dim=max_dim, field=REAL)


def convexity_probe(space, oracle, samples):
    """Min slack of F(u) - F(v) - <grad(v), u - v> over all sample pairs (>= 0 if convex)."""
    worst = math.inf
    for v in samples:
        gv = oracle.grad(v)
        fv = oracle.eval(v)
        for u in samples:
            worst = min(worst, oracle.eval(u) - fv - float(np.real(inner(space, gv, u - v))))
    return worst


def gradient_check_by_point(space, oracle, samples, h=1e-5):
    """The per-point loop that gradient_check replaces, kept as its reference."""
    rng = np.random.default_rng(1754)
    worst = 0.0
    for z in samples:
        g = oracle.grad(z)
        for _ in range(4):
            d = rng.standard_normal(space.dim)
            d /= float(np.sqrt((d * d).sum()))
            fd = (float(oracle.eval(z + h * d)) - float(oracle.eval(z - h * d))) / (2.0 * h)
            ip = float(np.real(inner(space, g, d)))
            worst = max(worst, abs(fd - ip) / max(1.0, abs(fd), abs(ip)))
    return worst


def affine_oracle(space, slope=None, offset=1.5):
    slope = np.ones(space.dim) if slope is None else np.asarray(slope, dtype=float)

    def value(z):
        return pairing(space, np.asarray(z), slope) + offset

    def gradient(z):
        return np.broadcast_to(slope, np.shape(z)).copy()

    return ConvexOracle("affine", value, gradient)


class TestOracleCatalog:
    @pytest.mark.parametrize("name", [n for n in sorted(ORACLE_FACTORIES) if n != "faulty_squared_norm"])
    def test_gradients_pass_check(self, rng, name):
        for _ in range(10):
            space = real_space(rng)
            oracle = get_oracle(name, space)
            samples = np.array([random_vector(rng, space, 1.5) for _ in range(4)])
            assert gradient_check(space, oracle, samples, h=1e-5) <= 1e-6

    @pytest.mark.parametrize("name", [n for n in sorted(ORACLE_FACTORIES) if n != "faulty_squared_norm"])
    def test_convexity_probe(self, rng, name):
        for _ in range(10):
            space = real_space(rng)
            oracle = get_oracle(name, space)
            samples = np.array([random_vector(rng, space, 1.5) for _ in range(6)])
            assert convexity_probe(space, oracle, samples) >= -1e-9

    @pytest.mark.parametrize("name", sorted(ORACLE_FACTORIES))
    def test_whole_array_matches_row_by_row(self, rng, name):
        for _ in range(10):
            space = real_space(rng)
            oracle = get_oracle(name, space)
            zs = np.array([random_vector(rng, space, 1.5) for _ in range(5)])
            values, grads = oracle.eval(zs), oracle.grad(zs)
            assert np.shape(values) == (5,) and np.shape(grads) == zs.shape
            assert np.array_equal(values, [oracle.eval(z) for z in zs])
            assert np.array_equal(grads, [oracle.grad(z) for z in zs])
            assert np.shape(oracle.eval(zs[0])) == ()

    @pytest.mark.parametrize("dim", [*range(1, 10), 32])
    def test_log_sum_exp_keeps_the_bits_of_its_row_reductions(self, rng, dim):
        """Its values and gradients, formed a column at a time, equal the per-row max and sum expressions."""
        metric = rng.uniform(0.2, 3.0, dim)
        for space in (Space(dim), Space(dim, REAL, metric)):
            oracle, m = get_oracle("log_sum_exp", space), metric if space.metric is not None else np.ones(dim)
            zs = rng.standard_normal((2000, dim)) * 30.0
            zs[::7, 0], zs[::5, -1] = 0.0, -0.0
            for z in (zs, zs[3], zs.reshape(40, 50, dim)):
                zmax = z.max(axis=-1)
                sums = np.exp(z - zmax[..., None]).sum(axis=-1)
                value = zmax + np.reshape(list(map(math.log, np.ravel(sums).tolist())), np.shape(sums))
                e = np.exp(z - z.max(axis=-1, keepdims=True))
                assert np.asarray(oracle.eval(z)).tobytes() == np.asarray(value).tobytes()
                assert oracle.grad(z).tobytes() == ((e / e.sum(axis=-1, keepdims=True)) / m).tobytes()

    def test_unknown_oracle(self):
        with pytest.raises(ContractViolationError):
            get_oracle("cubic", Space(2))

    def test_complex_space_rejected(self):
        with pytest.raises(ContractViolationError):
            get_oracle("squared_norm", Space(2, COMPLEX))


class TestGradientCheck:
    def test_squared_norm_tight(self, rng):
        space = Space(3)
        oracle = get_oracle("squared_norm", space)
        samples = np.array([random_vector(rng, space, 2.0) for _ in range(5)])
        assert gradient_check(space, oracle, samples, h=1e-5) <= 1e-7

    def test_affine_exact(self, rng):
        space = Space(3)
        samples = np.array([random_vector(rng, space, 2.0) for _ in range(5)])
        assert gradient_check(space, affine_oracle(space, [1.0, -2.0, 0.5]), samples) <= 1e-9

    def test_faulty_gradient_flagged(self, rng):
        space = Space(3)
        oracle = get_oracle("faulty_squared_norm", space)
        samples = np.array([random_vector(rng, space, 2.0) for _ in range(5)])
        err = gradient_check(space, oracle, samples, h=1e-5)
        assert 0.05 <= err <= 0.15  # a 1.1-scaled gradient shows up as ~0.1

    @pytest.mark.parametrize("name", sorted(ORACLE_FACTORIES))
    def test_matches_per_point_loop(self, rng, name):
        for _ in range(10):
            space = real_space(rng)
            oracle = get_oracle(name, space)
            samples = np.array([random_vector(rng, space, 1.5) for _ in range(6)])
            assert gradient_check(space, oracle, samples) == gradient_check_by_point(space, oracle, samples)

    @pytest.mark.parametrize("name", ["squared_norm", "norm_fourth"])
    def test_overflowing_differences_raise(self, name):
        space = Space(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings stay silent
            with pytest.raises(ContractViolationError, match="overflow"):
                gradient_check(space, get_oracle(name, space), [[1e160, 0.0], [0.0, 1e160]])

    def test_step_contract(self):
        space = Space(1)
        oracle = get_oracle("squared_norm", space)
        with pytest.raises(ContractViolationError):
            gradient_check(space, oracle, np.array([[1.0]]), h=0.5)


class TestGaps:
    def test_squared_norm_two_point(self):
        space = Space(1)
        oracle = get_oracle("squared_norm", space)
        zs = np.array([[0.0], [1.0]])
        report = reverse_jensen(space, oracle, [1.0, 1.0], zs)
        assert report.gap == pytest.approx(0.25)
        assert report.pairing_gap == pytest.approx(0.5)

    def test_constant_points(self):
        space = Space(2)
        oracle = get_oracle("log_sum_exp", space)
        zs = np.tile([0.3, -0.7], (4, 1))
        report = reverse_jensen(space, oracle, np.ones(4), zs)
        assert report.gap == pytest.approx(0.0, abs=1e-12)
        assert report.pairing_gap == pytest.approx(0.0, abs=1e-12)

    def test_affine_gap_zero(self, rng):
        space = Space(3)
        oracle = affine_oracle(space, [2.0, -1.0, 0.3])
        zs = np.array([random_vector(rng, space, 2.0) for _ in range(5)])
        assert abs(reverse_jensen(space, oracle, rng.exponential(size=5), zs).gap) <= 1e-12

    def test_gap_below_pairing_gap(self, rng):
        for _ in range(100):
            space = real_space(rng)
            oracle = get_oracle("diag_quadratic", space)
            n = int(rng.integers(1, 9))
            q = rng.exponential(size=n)
            zs = np.array([random_vector(rng, space, 2.0) for _ in range(n)])
            report = reverse_jensen(space, oracle, q, zs)
            gap, pgap = report.gap, report.pairing_gap
            scale = max(1.0, abs(gap), abs(pgap))
            assert gap >= -1e-9 * scale
            assert gap <= pgap + 1e-9 * scale

    def test_unnormalized_weights(self):
        space = Space(1)
        oracle = get_oracle("squared_norm", space)
        zs = np.array([[0.0], [1.0]])
        # q and its rescaling produce the same normalized gap
        assert reverse_jensen(space, oracle, [3.0, 3.0], zs).gap == pytest.approx(0.25)

    def test_nonpositive_total_weight(self):
        space = Space(1)
        oracle = get_oracle("squared_norm", space)
        with pytest.raises(Exception):
            reverse_jensen(space, oracle, [0.0, 0.0], np.array([[0.0], [1.0]]))


class TestReverseJensen:
    def test_fitted_enclosures_reuse_the_fits_reports(self, rng, report_calls):
        calls = report_calls
        space = Space(3)
        zs = np.array([random_vector(rng, space) for _ in range(50)])
        report = reverse_jensen(space, get_oracle("norm_fourth", space), np.ones(50), zs)
        assert calls == []
        assert [r.holds for r in report.chain.hypothesis_reports] == [True, True]

    def test_hand_example(self):
        # gradients {0, 2} fit to the (0, 2) enclosure: diam 2; mad(z) = 1/2
        space = Space(1)
        oracle = get_oracle("squared_norm", space)
        report = reverse_jensen(space, oracle, [0.5, 0.5], np.array([[0.0], [1.0]]))
        assert report.gap == pytest.approx(0.25)
        assert report.pairing_gap == pytest.approx(0.5)
        assert report.grad_encl.diameter == pytest.approx(2.0)
        values = report.chain.values()
        assert values == pytest.approx((0.25, 0.5, 0.5, 0.5))
        assert report.improvement_ratio == pytest.approx(1.0)
        assert report.chain.holds()

    def test_constant_zs_all_zero(self):
        space = Space(2)
        oracle = get_oracle("squared_norm", space)
        report = reverse_jensen(space, oracle, np.ones(3), np.tile([1.0, -2.0], (3, 1)))
        assert report.gap == pytest.approx(0.0, abs=1e-12)
        assert report.chain.values() == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-12)
        assert report.improvement_ratio is None

    def test_affine_constant_gradient(self, rng):
        # varying zs but one shared gradient: degenerate enclosure, zero links
        space = Space(2)
        oracle = affine_oracle(space, [1.0, 2.0])
        zs = np.array([random_vector(rng, space) for _ in range(4)])
        report = reverse_jensen(space, oracle, np.ones(4), zs)
        assert report.grad_encl.diameter == 0.0
        assert abs(report.gap) <= 1e-12
        assert report.chain.holds()

    def test_improvement_instance(self):
        # spread-out z with tight mad: the first link strictly beats the quarter link
        space = Space(1)
        oracle = get_oracle("squared_norm", space)
        report = reverse_jensen(space, oracle, np.ones(3), np.array([[-1.0], [0.0], [1.0]]))
        assert report.improvement_ratio is not None
        assert report.improvement_ratio < 0.999
        # the gradients' ball report (radius 2 about 0) first, the zs' (radius 1 about 0) second
        grad_report, z_report = report.chain.hypothesis_reports
        assert grad_report.kind == z_report.kind == "ball"
        assert grad_report.slacks.tolist() == [0.0, 2.0, 0.0] and z_report.slacks.tolist() == [0.0, 1.0, 0.0]

    def test_full_chain_random(self, rng):
        for name in ("squared_norm", "diag_quadratic", "log_sum_exp", "norm_fourth"):
            for _ in range(60):
                space = real_space(rng)
                oracle = get_oracle(name, space)
                n = int(rng.integers(2, 9))
                zs = np.array([random_vector(rng, space, 1.5) for _ in range(n)])
                q = rng.exponential(size=n)
                report = reverse_jensen(space, oracle, q, zs)
                scale = max(1.0, abs(report.gap), abs(report.pairing_gap))
                assert report.gap >= -1e-10 * scale
                assert report.gap <= report.pairing_gap + 1e-10 * scale
                assert report.chain.holds(), report.chain.values()
                if report.improvement_ratio is not None:
                    assert report.improvement_ratio <= 1.0 + 1e-10

    def test_supplied_enclosure_validated(self):
        space = Space(1)
        oracle = get_oracle("squared_norm", space)
        bad = Enclosure(space, [0.0], [0.5])  # gradients reach 2.0
        with pytest.raises(HypothesisError, match="ball condition on gradients fails at index 1"):
            reverse_jensen(space, oracle, [0.5, 0.5], np.array([[0.0], [1.0]]), grad_encl=bad)

    def test_supplied_z_enclosure_validated(self):
        space = Space(1)
        oracle = get_oracle("squared_norm", space)
        bad = Enclosure(space, [0.0], [0.1])
        with pytest.raises(HypothesisError, match="ball condition on zs fails at index 1"):
            reverse_jensen(space, oracle, [0.5, 0.5], np.array([[0.0], [1.0]]), z_encl=bad)

    def test_each_gradient_evaluated_once(self, rng):
        space = Space(3)
        base = get_oracle("log_sum_exp", space)
        calls = {"eval": 0, "grad": 0}
        grad_shapes = []

        def value(z):
            calls["eval"] += 1
            return base.eval(z)

        def gradient(z):
            calls["grad"] += 1
            grad_shapes.append(np.shape(z))
            return base.grad(z)

        n = 7
        zs = np.array([random_vector(rng, space) for _ in range(n)])
        q = rng.exponential(size=n)
        report = reverse_jensen(space, ConvexOracle("counted", value, gradient), q, zs)
        assert calls == {"eval": 2, "grad": 1}
        assert grad_shapes == [(n, 3)]
        w = q / q.sum()
        grads = base.grad(zs)
        assert report.gap == pytest.approx(w @ base.eval(zs) - base.eval(w @ zs), rel=1e-12, abs=1e-15)
        assert report.pairing_gap == pytest.approx(w @ pairing(space, grads - w @ grads, zs - w @ zs), rel=1e-12, abs=1e-15)

    def test_squared_norm_euler_identity(self, rng):
        # for F = ||.||^2 the pairing gap is exactly twice the Jensen gap
        for _ in range(100):
            space = real_space(rng)
            oracle = get_oracle("squared_norm", space)
            n = int(rng.integers(1, 9))
            zs = np.array([random_vector(rng, space, 2.0) for _ in range(n)])
            q = rng.exponential(size=n)
            report = reverse_jensen(space, oracle, q, zs)
            gap, pgap = report.gap, report.pairing_gap
            assert abs(pgap - 2.0 * gap) <= 1e-10 * max(1.0, abs(pgap))

    def test_complex_space_rejected(self):
        space = Space(1, COMPLEX)
        with pytest.raises(ContractViolationError):
            reverse_jensen(space, get_oracle("squared_norm", Space(1)), [1.0], np.array([[1.0 + 0j]]))
