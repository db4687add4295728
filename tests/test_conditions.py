import tracemalloc

import numpy as np
import pytest

from conftest import random_enclosure, random_space, random_vector, sample_in_ball
from grussbounds import (
    DegenerateInputError,
    Enclosure,
    ProbabilityVector,
    Space,
    WeightedSequence,
    bound_chebyshev,
    check_ball,
    check_box,
    check_scalar_disc,
    fit_enclosure,
)
from grussbounds.conditions import COND_TOL
from grussbounds.space import COLUMN_ROWS, COMPLEX, REAL, norm
from numpy_reference import reference_fit


class TestEnclosure:
    def test_derived_quantities(self):
        encl = Enclosure(Space(2), [0.0, 0.0], [2.0, 0.0])
        assert encl.center == pytest.approx([1.0, 0.0])
        assert encl.radius == pytest.approx(1.0)
        assert encl.diameter == pytest.approx(2.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            Enclosure(Space(1), [1.0], [1.0])

    def test_degenerate_opt_in(self):
        encl = Enclosure(Space(1), [1.0], [1.0], allow_degenerate=True)
        assert encl.diameter == 0.0 and encl.radius == 0.0


class TestCheckBox:
    def test_interior_point(self):
        report = check_box(Enclosure(Space(1), [0.0], [2.0]), [[1.0]])
        assert report.holds and report.slacks[0] == pytest.approx(1.0)

    def test_exterior_point(self):
        report = check_box(Enclosure(Space(1), [0.0], [2.0]), [[3.0]])
        assert not report.holds and report.slacks[0] == pytest.approx(-3.0)

    def test_boundary_point(self):
        report = check_box(Enclosure(Space(1), [0.0], [2.0]), [[0.0]])
        assert report.holds and report.slacks[0] == pytest.approx(0.0)


class TestCheckBall:
    def test_center(self):
        report = check_ball(Enclosure(Space(1), [0.0], [2.0]), [[1.0]])
        assert report.holds and report.slacks[0] == pytest.approx(1.0)

    def test_sphere_point_outside_segment(self):
        # on the sphere with antipodes (0,0), (2,0) even though its second
        # coordinate leaves the coordinate box
        report = check_ball(Enclosure(Space(2), [0.0, 0.0], [2.0, 0.0]), [[1.0, 1.0]])
        assert report.holds
        assert report.slacks[0] == pytest.approx(0.0, abs=1e-15)

    def test_exterior(self):
        report = check_ball(Enclosure(Space(1), [0.0], [2.0]), [[3.0]])
        assert not report.holds and report.slacks[0] == pytest.approx(-1.0)


class TestScalarDisc:
    def test_real_interior(self):
        assert check_scalar_disc(0.0, 1.0, [0.5]).holds

    def test_real_exterior(self):
        assert not check_scalar_disc(0.0, 1.0, [1.2]).holds

    def test_complex_disc(self):
        # disc of radius 1 about 0, endpoints -i and i
        assert check_scalar_disc(-1j, 1j, [0.9]).holds
        assert not check_scalar_disc(-1j, 1j, [1.1]).holds

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            check_scalar_disc(1.0, 1.0, [1.0])

    def test_real_specialization_matches_interval(self, rng):
        # for real a < A the modulus form is exactly interval membership
        for _ in range(300):
            a = float(rng.standard_normal())
            A = a + float(rng.uniform(0.05, 3.0))
            alpha = float(rng.uniform(a - 1.0, A + 1.0))
            report = check_scalar_disc(a, A, [alpha])
            tol = COND_TOL * report.ball_scale
            assert report.holds == (a - tol <= alpha <= A + tol)


class TestConditionEquivalence:
    def test_box_equals_ball_outside_dead_zone(self, rng):
        checked = 0
        for _ in range(400):
            space = random_space(rng, max_dim=6)
            encl = random_enclosure(rng, space)
            # mix of interior, boundary and exterior points
            kind = rng.random()
            if kind < 0.4:
                pt = sample_in_ball(rng, space, encl, 1)[0]
            else:
                pt = encl.center + random_vector(rng, space, scale=float(rng.uniform(0.1, 3.0)) * encl.radius)
            box = check_box(encl, [pt])
            ball = check_ball(encl, [pt])
            if abs(box.box_slacks[0]) <= 1e-8 * box.box_scale:
                continue
            if abs(ball.ball_slacks[0]) <= 1e-8 * ball.ball_scale:
                continue
            checked += 1
            assert bool(box.box_verdicts[0]) == bool(ball.ball_verdicts[0])
        assert checked > 200

    def test_box_slack_identity(self, rng):
        # Re<hi - v, v - lo> == radius^2 - ||v - center||^2
        for _ in range(300):
            space = random_space(rng, max_dim=6)
            encl = random_enclosure(rng, space)
            pt = encl.center + random_vector(rng, space, scale=encl.radius)
            report = check_box(encl, [pt])
            dist = norm(space, pt - encl.center)
            expected = encl.radius**2 - dist**2
            scale = max(encl.radius**2, dist**2, 1e-30)
            assert abs(report.box_slacks[0] - expected) <= 1e-10 * scale


#: Points inside, outside, on the sphere, and just outside it within the dead zone.
_PTS = [[1.0, 0.0], [3.0, 0.0], [1.0, 1.0], [2.0 + 1e-12, 0.0]]
_ENCL = Enclosure(Space(2), [0.0, 0.0], [2.0, 0.0])

#: Each report-producing entry point and the form whose names its report carries.
ONE_FORM_REPORTS = {
    "check_box": (lambda: check_box(_ENCL, _PTS), "box"),
    "check_ball": (lambda: check_ball(_ENCL, _PTS), "ball"),
    "check_scalar_disc": (lambda: check_scalar_disc(0.0, 1.0, [0.5, 1.2, 1.0, 1.0 + 1e-12]), "ball"),
    "bound_chebyshev": (
        lambda: bound_chebyshev(
            _ENCL, WeightedSequence(Space(2), ProbabilityVector.uniform(4), xs=_PTS, ys=_PTS), check=False
        ).hypothesis_reports[0],
        "ball",
    ),
}


class TestOneFormReport:
    @pytest.mark.parametrize("entry", list(ONE_FORM_REPORTS))
    def test_verdicts_and_holds_derive_from_the_slacks(self, entry):
        make, form = ONE_FORM_REPORTS[entry]
        report = make()
        assert np.array_equal(report.verdicts, report.slacks >= -COND_TOL * report.scale)
        assert report.holds == bool(report.verdicts.all())
        assert report.verdicts.tolist() == [True, False, True, True]
        for field in ("slacks", "verdicts", "scale"):
            assert getattr(report, f"{form}_{field}") is getattr(report, field)

    @pytest.mark.parametrize("entry", list(ONE_FORM_REPORTS))
    def test_the_other_forms_names_raise(self, entry):
        make, form = ONE_FORM_REPORTS[entry]
        report = make()
        other = "ball" if form == "box" else "box"
        for field in ("slacks", "verdicts", "scale"):
            with pytest.raises(AttributeError):
                getattr(report, f"{other}_{field}")


class TestFitEnclosure:
    def test_two_points(self):
        encl = fit_enclosure(Space(1), np.array([[0.0], [1.0]]))
        assert encl.lo == pytest.approx([0.0])
        assert encl.hi == pytest.approx([1.0])

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateInputError):
            fit_enclosure(Space(2), np.tile([1.0, 2.0], (4, 1)))

    def test_soundness_random_clouds(self, rng):
        for _ in range(150):
            space = random_space(rng, max_dim=6)
            n = int(rng.integers(2, 12))
            pts = np.array([random_vector(rng, space, scale=2.0) for _ in range(n)])
            encl = fit_enclosure(space, pts)
            report = check_ball(encl, pts)
            assert report.holds
            assert report.min_slack() >= -1e-10 * report.ball_scale

    def test_equilateral_triangle(self):
        # no pair of the points is antipodal for a covering ball: the apex
        # sits d*sqrt(3)/2 from the pair midpoint
        sp = Space(2)
        s = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        encl = fit_enclosure(sp, s)
        assert check_ball(encl, s).holds

    def test_complex_cloud(self, rng):
        space = Space(3, COMPLEX)
        pts = np.array([random_vector(rng, space) for _ in range(7)])
        encl = fit_enclosure(space, pts)
        assert check_ball(encl, pts).holds

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("dim", [1, 3, 8, 32])
    def test_matches_the_reference_fit_bit_for_bit(self, rng, dim, field):
        for t in range(8):
            space = Space(dim, field, rng.uniform(0.2, 3.0, dim) if t % 2 else None)
            n = int(rng.integers(2, 40)) if t < 2 else int(rng.integers(COLUMN_ROWS, 4 * COLUMN_ROWS))
            pts = space.matrix([random_vector(rng, space) for _ in range(n)])
            lo, hi, _ = reference_fit(pts, space.metric)
            encl = fit_enclosure(space, pts)
            assert encl.lo.tobytes() == lo.tobytes() and encl.hi.tobytes() == hi.tobytes()

    def test_an_inflated_fit_matches_the_reference(self, rng):
        space = Space(3)
        for _ in range(100):
            pts = rng.standard_normal((COLUMN_ROWS * 2, 3))
            lo, hi, inflated = reference_fit(pts)
            if inflated:
                break
        assert inflated
        encl = fit_enclosure(space, pts)
        assert encl.lo.tobytes() == lo.tobytes() and encl.hi.tobytes() == hi.tobytes()

    def test_peak_memory_stays_within_three_and_a_half_inputs(self, rng):
        pts = rng.standard_normal((200_000, 3))
        tracemalloc.start()
        try:
            fit_enclosure(Space(3), pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * pts.nbytes  # the validated copy and a few (n,) arrays
