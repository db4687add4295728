import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_enclosure, random_space, random_vector, sample_in_ball
from grussbounds import (
    ContractViolationError,
    DegenerateInputError,
    DimensionMismatchError,
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
from grussbounds.space import BLOCK_ELEMS, COLUMN_ROWS, COMPLEX, REAL, norm
from numpy_reference import reference_fit, reference_norms


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

    def test_center_is_stored_read_only_and_pickles(self, rng):
        import pickle

        for space in (Space(3), Space(2, COMPLEX), Space(3, REAL, [0.5, 1.0, 2.0])):
            encl = random_enclosure(rng, space)
            assert encl.center is encl.center and not encl.center.flags.writeable
            assert encl.center.tobytes() == ((encl.lo + encl.hi) / 2.0).tobytes()
            assert pickle.loads(pickle.dumps(encl)).center.tobytes() == encl.center.tobytes()


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


class TestDiscCache:
    def test_signed_zeros_are_different_discs(self):
        from grussbounds.conditions import _disc

        neg, pos = _disc(-0.0, 1.0), _disc(0.0, 1.0)
        assert neg is not pos and neg is _disc(-0.0, 1.0) and pos is _disc(0.0, 1.0)
        assert np.signbit(neg.lo.real[0]) and not np.signbit(pos.lo.real[0])
        assert _disc(1.0, complex(2.0, -0.0)) is not _disc(1.0, 2.0 + 0j)

    def test_equal_numbers_share_a_disc(self):
        from grussbounds.conditions import _disc

        disc = _disc(0.5, 2.0 + 1.0j)
        assert _disc(np.float64(0.5), np.complex128(2.0 + 1.0j)) is disc
        assert _disc(complex(0.5, 0.0), 2.0 + 1.0j) is disc

    @pytest.mark.parametrize("a, A, error", [
        (0.5, 0.5, DegenerateInputError), (0.5, 0.5 + 0j, DegenerateInputError),
        (float("nan"), 1.0, ContractViolationError), (0.0, complex(1.0, float("inf")), ContractViolationError),
    ])
    def test_an_invalid_disc_raises_on_every_call(self, a, A, error):
        from grussbounds.conditions import _disc

        _disc(0.5, 2.0)  # a cached success first
        for _ in range(3):
            with pytest.raises(error):
                _disc(a, A)
            with pytest.raises(error):
                check_scalar_disc(a, A, [0.5])

    def test_every_disc_lies_on_one_line(self):
        # one complex line, so one real view of it, past the cache's size and for discs it does not keep
        from grussbounds.conditions import DISC_CACHE_SIZE, _LINE, _disc

        discs = [_disc(0.0, complex(k, 1.0)) for k in range(DISC_CACHE_SIZE + 2)] + [_disc(np.float64(0.5), 2)]
        assert all(disc.space is _LINE for disc in discs) and _LINE.is_complex and _LINE.dim == 1

    def test_other_types_are_validated_on_every_call(self):
        from grussbounds.conditions import _disc

        _disc(1.0, 2.0)
        for _ in range(2):
            with pytest.raises(DegenerateInputError):
                _disc(True, 1.0)  # True == 1.0, and so degenerate
            with pytest.raises(DimensionMismatchError, match="entries of dtype bool"):
                _disc(True, 2.0)
        assert _disc(1, 2).lo.tobytes() == _disc(1.0, 2.0).lo.tobytes()

    def test_outputs_are_equal_cold_and_warm(self, rng):
        from grussbounds import bound_complex_sequence, bound_scalar_weighted
        from grussbounds.conditions import _kept_disc

        space = Space(2)
        p = ProbabilityVector.from_nonnegative(rng.random(6))
        alphas = rng.uniform(0.1, 0.9, 6)
        ws = WeightedSequence(space, p, xs=rng.uniform(-0.5, 0.5, (6, 2)), alphas=alphas)
        encl = Enclosure(space, [-1.0, 0.0], [1.0, 0.0])

        def outputs():
            chains = [bound_scalar_weighted(encl, ws, disc=(0.0, 1.0)), bound_complex_sequence(-0.0, 1.0 + 0.5j, p, alphas)]
            return [(chain.values(), [report.slacks.tobytes() for report in chain.hypothesis_reports]) for chain in chains]

        _kept_disc.cache_clear()
        cold = outputs()
        assert _kept_disc.cache_info().currsize == 2
        assert outputs() == cold and _kept_disc.cache_info().hits == 2


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

#: Real, complex and metric rows to fit enclosures to.
_ROWS = {
    "real": (Space(3), [[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [-1.0, 0.0, 3.0]]),
    "complex": (Space(2, COMPLEX), [[1 + 1j, 0.0], [0.0, 2j], [-1.0, 1 - 1j]]),
    "metric": (Space(2, REAL, [0.5, 2.0]), [[0.0, 1.0], [3.0, -1.0], [1.0, 0.5], [-2.0, 0.0], [0.5, 0.5]]),
}


def _fitted_ball(rows):
    """The fit's own ball report, on the very array it was fitted to: every row holds."""
    space, pts = _ROWS[rows]
    pts = space.matrix(pts)
    return check_ball(fit_enclosure(space, pts), pts)


def _fitted_gate():
    """A chain's gate on the very array its enclosure was fitted to: the fit's own report."""
    space, pts = _ROWS["real"]
    ws = WeightedSequence(space, ProbabilityVector.uniform(len(pts)), xs=pts, ys=pts)
    return bound_chebyshev(fit_enclosure(space, ws.xs), ws).hypothesis_reports[0]


def _beyond_the_fit(check, rows):
    """A report of a fit's enclosure measured on its rows and one row far beyond it, which fails."""
    space, pts = _ROWS[rows]
    encl = fit_enclosure(space, pts)
    return check(encl, [*pts, encl.center + 3.0 * (encl.hi - encl.center)])


def _overflowing(check):
    """A report whose first row's slack overflows to -inf, which fails."""
    with np.errstate(over="ignore"):
        return check(_ENCL, [[1e200, 0.0], [1.0, 0.0]])


#: Each report-producing entry point, the form whose names its report carries, and its verdicts.
ONE_FORM_REPORTS = {
    "check_box": (lambda: check_box(_ENCL, _PTS), "box", [True, False, True, True]),
    "check_ball": (lambda: check_ball(_ENCL, _PTS), "ball", [True, False, True, True]),
    "check_scalar_disc": (
        lambda: check_scalar_disc(0.0, 1.0, [0.5, 1.2, 1.0, 1.0 + 1e-12]), "ball", [True, False, True, True]
    ),
    "bound_chebyshev": (
        lambda: bound_chebyshev(
            _ENCL, WeightedSequence(Space(2), ProbabilityVector.uniform(4), xs=_PTS, ys=_PTS), check=False
        ).hypothesis_reports[0],
        "ball",
        [True, False, True, True],
    ),
    **{f"fitted_ball_{rows}": (lambda rows=rows: _fitted_ball(rows), "ball", [True] * len(_ROWS[rows][1]))
       for rows in _ROWS},
    **{f"measured_{form}_{rows}": (lambda check=check, rows=rows: _beyond_the_fit(check, rows), form,
                                   [True] * len(_ROWS[rows][1]) + [False])
       for form, check in (("ball", check_ball), ("box", check_box)) for rows in _ROWS},
    "fitted_chain": (_fitted_gate, "ball", [True] * len(_ROWS["real"][1])),
    "complex_disc": (lambda: check_scalar_disc(-1j, 1j, [0.5j, 1.5, 1j, -0.2]), "ball", [True, False, True, True]),
    "overflowing_ball": (lambda: _overflowing(check_ball), "ball", [False, True]),
    "overflowing_box": (lambda: _overflowing(check_box), "box", [False, True]),
}


class TestOneFormReport:
    @pytest.mark.parametrize("entry", list(ONE_FORM_REPORTS))
    def test_verdicts_and_holds_derive_from_the_slacks(self, entry):
        make, form, verdicts = ONE_FORM_REPORTS[entry]
        report = make()
        holds, least, failing, size = report.holds, report.min_slack(), report.failing_indices(), len(report)
        assert np.array_equal(report.verdicts, report.slacks >= -COND_TOL * report.scale)
        assert holds == report.holds == bool(report.verdicts.all())
        assert least.hex() == float(report.slacks.min()).hex()
        assert np.array_equal(failing, np.flatnonzero(~report.verdicts)) and failing.dtype == np.intp
        assert size == report.slacks.size == len(verdicts)
        assert report.verdicts.tolist() == verdicts
        for field in ("slacks", "verdicts", "scale"):
            assert getattr(report, f"{form}_{field}") is getattr(report, field)

    @pytest.mark.parametrize("entry", list(ONE_FORM_REPORTS))
    def test_the_other_forms_names_raise(self, entry):
        make, form, _ = ONE_FORM_REPORTS[entry]
        report = make()
        other = "ball" if form == "box" else "box"
        for field in ("slacks", "verdicts", "scale"):
            with pytest.raises(AttributeError, match=f"^{report.kind} condition report has no attribute '{other}_{field}'"):
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

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 3, 32]), several=st.booleans(), exponent=st.floats(6.0, 12.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_far_from_the_origin_fit(self, dim, several, exponent, seed):
        # one ulp of the antipodes at the offset can exceed the dead zone COND_TOL * diameter
        rng = np.random.default_rng(seed)
        n = 3 * block_rows(dim) + 5 if several else int(rng.integers(2, 60))
        pts = rng.standard_normal((n, dim)) + 10.0 ** exponent * rng.choice([-1.0, 1.0], dim)
        encl = fit_enclosure(Space(dim), pts)
        assert check_ball(encl, pts).holds  # the fit's own report
        assert check_ball(Enclosure(Space(dim), encl.lo, encl.hi), pts).holds  # measured afresh

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", ["first", "sample", "last"])
    @pytest.mark.parametrize("several", [False, True])
    @pytest.mark.parametrize("dim, field", [(3, REAL), (32, REAL), (2, COMPLEX)])
    def test_a_non_finite_entry_raises_at_the_first_full_pass(self, rng, dim, field, several, row, bad):
        # the rows are not checked on entry: the first full pass shows the entry, and then they are checked
        n = 3 * block_rows(dim) + 5 if several else 300
        pts = rng.standard_normal((n, dim)) + (1j * rng.standard_normal((n, dim)) if field == COMPLEX else 0.0)
        pts[{"first": 0, "sample": 3 * 64, "last": n - 1}[row], dim - 1] = bad
        frozen = pts.copy()
        frozen.flags.writeable = False
        for rows in (pts, frozen):  # the fit copies writeable rows, not read-only ones
            with pytest.raises(ContractViolationError) as info:
                fit_enclosure(Space(dim, field), rows)
            assert str(info.value) == "vector entries must be finite"

    def test_peak_memory_stays_within_three_and_a_half_inputs(self, rng):
        pts = rng.standard_normal((200_000, 3))
        tracemalloc.start()
        try:
            fit_enclosure(Space(3), pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * pts.nbytes  # the validated copy and a few (n,) arrays


class Passes(list):
    """The rows of each distance pass (a ``row_distances`` call, or on rows of one block a direct call of the row
    kernel pairing the rows with themselves), and in ``filtered`` the rows of each pass that one product against the
    last exact pass filtered (the rows it kept were measured, so they are in the list as well)."""

    def __init__(self):
        super().__init__()
        self.filtered = []


def passes(monkeypatch):
    """The :class:`Passes` the fits make from here on."""
    from grussbounds import conditions

    rows, measure, filtered = Passes(), conditions.row_distances, conditions._filtered_rows
    kernel = conditions._pairing

    def filter_rows(space, xs, center, base):
        kept, bounds = filtered(space, xs, center, base)
        if kept is not None:
            rows.filtered.append(len(xs))
        return kept, bounds

    monkeypatch.setattr(conditions, "row_distances", lambda space, xs, c: rows.append(len(xs)) or measure(space, xs, c))
    monkeypatch.setattr(conditions, "_pairing", lambda space, a, b=None, ca=None, cb=None: (
        b is None and rows.append(len(a))) or kernel(space, a, b, ca, cb))
    monkeypatch.setattr(conditions, "_filtered_rows", filter_rows)
    return rows


#: Two-point inputs whose Ritter sweeps swap the center between two neighbouring floats: (metric, xs).
STALLED = {
    "real_line": (None, [[-1.4227417685154136], [0.25845279091298756]]),
    "metric": ([float.fromhex("0x1.4101efd225956p-2")],
               [[float.fromhex("-0x1.1c07df574b3f2p-2")], [float.fromhex("-0x1.872de16d78c21p+0")]]),
}


def stalled(case):
    metric, xs = STALLED[case]
    return Space(1, REAL, metric), np.array(xs)


class TestSweepsStopAtARecurringBall:
    """A fit stops its Ritter sweeps when a ball recurs and still returns the bits of the capped sweeps."""

    @pytest.mark.parametrize("case", list(STALLED))
    def test_a_stalled_pair_matches_the_reference_in_a_few_passes(self, monkeypatch, case):
        space, xs = stalled(case)
        rows = passes(monkeypatch)
        encl = fit_enclosure(space, xs)
        lo, hi, _ = reference_fit(xs, space.metric)
        assert encl.lo.tobytes() == lo.tobytes() and encl.hi.tobytes() == hi.tobytes()
        assert len(rows) <= 8  # two seed passes, a few sweeps, the report's pass; 204 with every capped sweep

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 7, 8, 199])
    def test_the_ball_at_any_cap_is_the_references(self, rng, monkeypatch, cap):
        # a cycle of two balls ends on either, by the parity of the cap
        from grussbounds import conditions

        monkeypatch.setattr(conditions, "MAX_SWEEPS", cap)
        cases = [stalled(case) for case in STALLED]
        cases += [(Space(1), rng.standard_normal((2, 1))) for _ in range(40)]
        for space in (Space(2), Space(2, COMPLEX), Space(3, REAL, [0.5, 1.0, 2.0])):
            cases += [(space, space.matrix([random_vector(rng, space) for _ in range(n)])) for n in (2, 3, 9, 31)]
        for space, xs in cases:
            lo, hi, _ = reference_fit(xs, space.metric, max_sweeps=cap)
            encl = fit_enclosure(space, xs)
            assert encl.lo.tobytes() == lo.tobytes() and encl.hi.tobytes() == hi.tobytes()


class TestOneConstruction:
    """A fit's enclosure, built from its own read-only endpoints without validating them again, has the
    constructor's fields and errors."""

    def fits(self, rng):
        for space in (Space(3), Space(2, COMPLEX), Space(3, REAL, [0.5, 1.0, 2.0]), Space(1)):
            for n in (2, 5, 16, COLUMN_ROWS + 3):
                yield space, space.matrix([random_vector(rng, space) for _ in range(n)])
        for _ in range(100):  # and one whose antipodes are inflated
            pts = rng.standard_normal((COLUMN_ROWS * 2, 3))
            if reference_fit(pts)[2]:
                yield Space(3), Space(3).matrix(pts)
                return
        raise AssertionError("no inflated fit drawn")

    def test_the_fields_are_the_constructors(self, rng, report_calls):
        import pickle

        for space, pts in self.fits(rng):
            encl = fit_enclosure(space, pts)
            built = Enclosure(space, encl.lo, encl.hi)
            assert encl.diameter == built.diameter and encl.radius == built.radius
            assert encl.center.tobytes() == built.center.tobytes()
            assert not (encl.lo.flags.writeable or encl.hi.flags.writeable or encl.center.flags.writeable)
            assert encl.space is space and encl.allow_degenerate is False
            copy = pickle.loads(pickle.dumps(encl))
            assert copy.lo.tobytes() == encl.lo.tobytes() and copy.hi.tobytes() == encl.hi.tobytes()
            assert copy.center.tobytes() == encl.center.tobytes() and copy.diameter == encl.diameter
            report_calls.clear()
            assert check_ball(encl, pts).holds and report_calls == []  # the fit's own report
            assert check_ball(copy, pts).holds and report_calls == ["ball"]

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "pts, error, message",
        [
            # the triangle's enclosure is wider than its pairs, and its squared diameter overflows
            ([[0.0, 0.0], [1.2e154, 0.0], [0.6e154, 0.6e154 * 3 ** 0.5]], ContractViolationError,
             "enclosure diameter overflows double precision"),
            ([[1e200, 0.0], [-1e200, 0.0]], ContractViolationError,
             "cannot fit an enclosure: the distances overflow double precision"),
            ([[3.0, 3.0], [3.0, 3.0]], DegenerateInputError, "cannot fit an enclosure to identical points"),
        ],
    )
    def test_the_errors_are_the_constructors(self, field, pts, error, message):
        with pytest.raises(error) as info:
            fit_enclosure(Space(2, field), pts)
        assert str(info.value) == message

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_an_overflowing_pair_direction_raises_as_the_constructor_does(self, field):
        # the pair's distance overflows but no ball distance does, so the direction is zero (or NaN)
        with pytest.raises(ContractViolationError) as info:
            fit_enclosure(Space(1, field), [[-1.2e154], [1.2e154]])
        assert str(info.value) == "cannot fit an enclosure: the distances overflow double precision"

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "lo, hi, error, message",
        [
            ([1.0, math.inf], [0.0, 0.0], ContractViolationError, "vector entries must be finite"),
            ([math.nan, 0.0], [math.nan, 0.0], ContractViolationError, "vector entries must be finite"),
            ([-1e200, 0.0], [1e200, 0.0], ContractViolationError, "enclosure diameter overflows double precision"),
            ([2.0, 3.0], [2.0, 3.0], DegenerateInputError, "degenerate enclosure: lo == hi"),
        ],
    )
    def test_the_fits_own_endpoints_are_checked_as_the_constructor_checks(self, field, lo, hi, error, message):
        space = Space(2, field)
        for build in (Enclosure, Enclosure._fit):
            with pytest.raises(error) as info, np.errstate(over="ignore", invalid="ignore"):
                build(space, np.array(lo, space.dtype), np.array(hi, space.dtype))
            assert str(info.value) == message

    def test_reverse_jensen_reports_an_overflowing_pair_direction(self):
        from grussbounds import get_oracle, reverse_jensen

        space = Space(1)
        # the gradients are all 1 (a one-point enclosure); the z-fit's pair distance overflows
        with pytest.raises(ContractViolationError) as info:
            reverse_jensen(space, get_oracle("log_sum_exp", space), [0.5, 0.5], [[-1.2e154], [1.2e154]])
        assert str(info.value) == "cannot fit an enclosure: the distances overflow double precision"


def block_rows(dim):
    """Rows in one block of the per-row kernels at width ``dim``."""
    return max(COLUMN_ROWS, BLOCK_ELEMS // dim)


class TestOneBlockFit:
    """A fit of one block (at most ``BLOCK_ELEMS`` numbers, or at most ``COLUMN_ROWS`` rows) measures every pass by
    one direct call of the row kernel and validates only its input, with the bits of the reference fit."""

    @pytest.mark.parametrize("kind", ["real", "complex", "metric"])
    @pytest.mark.parametrize("dim", [1, 3, 8])
    @pytest.mark.parametrize("rows_for", [
        lambda width: COLUMN_ROWS - 1, lambda width: COLUMN_ROWS, lambda width: BLOCK_ELEMS // width,
        lambda width: BLOCK_ELEMS // width + 1,
    ], ids=["column_rows-1", "column_rows", "block", "block+1"])
    def test_matches_the_reference_fit_bit_for_bit(self, rng, monkeypatch, rows_for, dim, kind):
        from grussbounds import conditions

        width = 2 * dim if kind == "complex" else dim  # real numbers a row: a complex fit runs on the real view
        n = rows_for(width)
        space = Space(dim, COMPLEX if kind == "complex" else REAL, rng.uniform(0.2, 3.0, dim) if kind == "metric" else None)
        pts = space.matrix(rng.standard_normal((n, dim)) + (1j * rng.standard_normal((n, dim)) if kind == "complex" else 0.0))
        calls, kernel = [], conditions._pairing
        monkeypatch.setattr(conditions, "_pairing", lambda space, a, b=None, ca=None, cb=None: (
            b is None and calls.append(len(a))) or kernel(space, a, b, ca, cb))
        lo, hi, _ = reference_fit(pts, space.metric)
        encl = fit_enclosure(space, pts)
        assert encl.lo.tobytes() == lo.tobytes() and encl.hi.tobytes() == hi.tobytes()
        one = n * width <= BLOCK_ELEMS or n <= COLUMN_ROWS
        assert calls == [n] * len(calls) and (len(calls) >= 4) == one  # two seed passes, a sweep and the report's

    def test_a_fit_validates_only_its_input(self, rng, monkeypatch):
        # the endpoints and the inflated ones are the fit's own, not checked again as the constructor checks its input
        validated, validate = [], Space._array
        monkeypatch.setattr(Space, "_array", lambda self, values, *args: validated.append(values) or validate(self, values, *args))
        space = Space(3)
        for pts in (rng.standard_normal((16, 3)), rng.standard_normal((2 * COLUMN_ROWS, 3))):
            validated.clear()
            fit_enclosure(space, pts)
            assert len(validated) == 1 and validated[0] is pts
        for _ in range(100):
            pts = rng.standard_normal((COLUMN_ROWS * 2, 3))
            if reference_fit(pts)[2]:
                break
        assert reference_fit(pts)[2]  # an inflated fit
        validated.clear()
        fit_enclosure(space, pts)
        assert len(validated) == 1 and validated[0] is pts


def several_blocks(rng, dim, field=REAL, kind="normal", scale=1.0):
    """3 * step + 5 rows of one kind, ``step`` the rows of one block ``dim`` wide."""
    shape = (3 * block_rows(dim) + 5, dim)
    draw = {
        "normal": rng.standard_normal,
        "cauchy": rng.standard_cauchy,
        "ties": lambda s: np.round(rng.standard_normal(s) * 2.0),  # many copies of each row
        "sphere": lambda s: (lambda a: a / np.linalg.norm(a, axis=1, keepdims=True))(rng.standard_normal(s)),
    }[kind]
    xs = draw(shape) * scale
    return xs + 1j * draw(shape) * scale if field == COMPLEX else xs


class TestPrunedSweeps:
    """On rows of more than one block, Ritter sweeps after the first measure only the rows
    that can still be farthest; every fit keeps the bits of the full-pass reference."""

    CASES = {
        "cauchy": (3, REAL, False, "cauchy", 1.0),
        "ties": (3, REAL, False, "ties", 1.0),
        "metric": (3, REAL, True, "normal", 1.0),
        "complex": (3, COMPLEX, False, "normal", 1.0),
        "complex_metric_cauchy": (2, COMPLEX, True, "cauchy", 1.0),
        "disc": (1, COMPLEX, False, "normal", 1.0),
        "real_dim1": (1, REAL, False, "cauchy", 1.0),
        "dim32": (32, REAL, False, "normal", 1.0),
        "dim32_ties": (32, REAL, True, "ties", 1.0),
        "sphere": (3, REAL, False, "sphere", 1.0),
        "huge": (3, REAL, False, "normal", 1e150),
        "small": (3, REAL, False, "normal", 1e-140),
        "wide_metric_cauchy": (16, REAL, True, "cauchy", 1.0),
        "wide_complex": (5, COMPLEX, True, "normal", 1.0),
        "wide_huge": (32, REAL, False, "normal", 1e150),
        "wide_small": (32, REAL, False, "normal", 1e-140),
    }

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The row subsets the pruned sweeps chose (None for a fallback to a full pass)."""
        from grussbounds import conditions

        chosen, pick = [], conditions._sweep_rows
        monkeypatch.setattr(conditions, "_sweep_rows", lambda *args: chosen.append(pick(*args)) or chosen[-1])
        return chosen

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_reference_fit_bit_for_bit(self, rng, monkeypatch, case, sweeps, report_calls):
        dim, field, with_metric, kind, scale = self.CASES[case]
        rows = passes(monkeypatch)
        for _ in range(3):
            space = Space(dim, field, rng.uniform(0.2, 3.0, dim) if with_metric else None)
            pts = space.matrix(several_blocks(rng, dim, field, kind, scale))
            lo, hi, _ = reference_fit(pts, space.metric)
            encl = fit_enclosure(space, pts)
            assert encl.lo.tobytes() == lo.tobytes() and encl.hi.tobytes() == hi.tobytes()
            assert check_ball(encl, pts).holds and report_calls == []
        # a real line needs no sweep and rows near a sphere fall back; the others measured fewer rows
        assert case in ("real_dim1", "sphere") or any(rows is not None for rows in sweeps)
        assert bool(rows.filtered) == (dim * (1 + (field == COMPLEX)) >= 8)  # only rows 8 or more wide are filtered

    def test_rows_near_the_sphere_fall_back_to_a_full_pass(self, rng, sweeps):
        space = Space(3)
        pts = space.matrix(several_blocks(rng, 3, kind="sphere"))
        lo, hi, _ = reference_fit(pts)
        encl = fit_enclosure(space, pts)
        assert None in sweeps  # the rows all lie near the farthest distance
        assert encl.lo.tobytes() == lo.tobytes() and encl.hi.tobytes() == hi.tobytes()

    def test_the_first_of_tied_farthest_rows_wins(self, rng, monkeypatch, sweeps):
        from grussbounds import conditions

        found, farthest = [], conditions._farthest
        monkeypatch.setattr(conditions, "_farthest", lambda space, xs, center, *args: found.append(
            (center, farthest(space, xs, center, *args))) or found[-1][1])
        for _ in range(3):
            found.clear()
            half = several_blocks(rng, 3, kind="ties")[: 2 * block_rows(3)]
            pts = np.concatenate([half, half])  # every row has an equal row in a later block
            fit_enclosure(Space(3), pts)
            for center, (far, _, _) in found:  # every pass, pruned or full, from the middle, the seeds and the sweeps
                assert far == int(np.argmax(reference_norms(pts - center))) < len(half)
        assert any(rows is not None for rows in sweeps)

    @pytest.mark.parametrize("case", ["metric", "complex", "dim32"])
    def test_a_fitted_report_answers_without_a_full_pass(self, rng, monkeypatch, case):
        from grussbounds.conditions import _slacks

        dim, field, with_metric, kind, scale = self.CASES[case]
        space = Space(dim, field, rng.uniform(0.2, 3.0, dim) if with_metric else None)
        pts = space.matrix(several_blocks(rng, dim, field, kind, scale))
        encl = fit_enclosure(space, pts)
        rows = passes(monkeypatch)
        report = check_ball(encl, pts)
        assert report.holds and report.failing_indices().size == 0 and len(report) == len(pts)
        least = report.min_slack()
        assert rows == []  # the fit's farthest distance answers them
        expected = _slacks(encl, pts, "ball")
        assert least.hex() == float(expected.min()).hex()
        assert report.slacks.tobytes() == expected.tobytes() and rows == [len(pts)] * 2  # measured when read

    def test_tiny_distances_are_never_pruned(self, rng, sweeps):
        # below the normal range the squares round too coarsely for the margin
        fit_enclosure(Space(3), several_blocks(rng, 3, scale=1e-160))
        assert sweeps and all(rows is None for rows in sweeps)

    def test_an_overflowing_input_raises(self, rng):
        pts = several_blocks(rng, 3, scale=1e200)
        with pytest.raises(ContractViolationError, match="overflow"):
            fit_enclosure(Space(3), pts)

    def test_a_fit_measures_about_two_full_passes(self, monkeypatch):
        rows = passes(monkeypatch)
        pts = np.random.default_rng(0).standard_normal((200_000, 3))
        fit_enclosure(Space(3), pts)
        assert sum(rows) <= 2.5 * len(pts)  # six full passes without the pruning

    #: (n, dim, field) of the benchmark's array shapes, of its scalar discs, and of rows 8 to 24 wide.
    SHAPES = {
        "real3": (1_000_000, 3, REAL),
        "disc": (1_000_000, 1, COMPLEX),
        "complex3": (250_000, 3, COMPLEX),
        "real32": (100_000, 32, REAL),
        "real8": (100_000, 8, REAL),
        "real16": (100_000, 16, REAL),
        "real24": (100_000, 24, REAL),
    }

    @pytest.mark.parametrize("first", [0.0, 2.5])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_full_passes_on_the_benchmark_shapes(self, monkeypatch, shape, first):
        # 3 wide, real or complex, and on the discs, only the anchor pass from the middle of the rows measures every
        # row, wherever the first row lies, and no pass is filtered; 8 or more wide one exact pass measures every row,
        # from the middle or from the first row, and where the triangle test keeps too many rows a product against
        # it filters the pass (32 wide the sample shows that no anchor from the middle prunes: the first seed pass is
        # the exact one, and the other passes are filtered)
        n, dim, field = self.SHAPES[shape]
        rows = passes(monkeypatch)
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((n, dim))
        if field == COMPLEX:
            pts = pts + 1j * rng.standard_normal((n, dim))
        pts[0] = 0.0
        pts[0, 0] = first
        fit_enclosure(Space(dim, field), pts)
        assert rows.count(n) == 1, rows
        assert set(rows.filtered) <= ({n} if dim >= 8 else set()), rows.filtered
        assert dim != 32 or len(rows.filtered) >= 2, rows.filtered  # the second seed pass and a sweep at least

    @pytest.mark.parametrize("shell", ["sphere", "circle"])
    def test_full_passes_on_a_shell(self, monkeypatch, shell):
        # every row lies about as far from the middle, so no anchor there prunes the first seed pass: the sample
        # rows show it, and the fit makes the four full passes it made with the first seed pass as the anchor,
        # and measures no more than 1 / 64 of the rows on each of two sample passes and in its pruned passes
        n = 1_000_000
        rng = np.random.default_rng(4)
        if shell == "sphere":
            space, pts = Space(3), rng.standard_normal((n, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        else:
            space, pts = Space(1, COMPLEX), np.exp(2j * np.pi * rng.random(n))[:, None]
        rows = passes(monkeypatch)
        fit_enclosure(space, pts)
        assert rows.count(n) == 4 and sum(rows) < 4.2 * n and rows.filtered == [], rows


class TestFilteredPass:
    """On rows 8 or more real numbers wide, a pass that would measure every row is filtered by one product against
    the last exact pass: the rows it keeps hold the full pass's farthest row, and its bounds hold every distance."""

    @settings(max_examples=200, deadline=None)
    @given(wide=st.integers(8, 40), field=st.sampled_from([REAL, COMPLEX]), with_metric=st.booleans(),
           exponent=st.one_of(st.integers(-400, 400), st.integers(-560, -480), st.integers(500, 510)),  # the last two:
           # below about 2**-490 the bound is subnormal, and past about 2**505 a sum overflows
           offset=st.one_of(st.just(0.0), st.floats(1.0, 1e7)), ties=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_the_kept_rows_give_the_full_passs_row_and_distance(self, wide, field, with_metric, exponent, offset, ties,
                                                                 seed):
        rng = np.random.default_rng(seed)
        dim = (wide + 1) // 2 if field == COMPLEX else wide
        space = Space(dim, field, rng.uniform(0.2, 3.0, dim) if with_metric else None)
        n = int(rng.integers(1, 200))
        pts = rng.standard_normal((n, dim)) + (1j * rng.standard_normal((n, dim)) if field == COMPLEX else 0.0)
        if ties:  # rounded rows, each of them twice
            pts = np.round(np.concatenate([pts, pts]) * 2.0)
        pts = pts + offset * rng.choice([-1.0, 1.0], dim)
        xs = space.matrix(pts * 2.0 ** exponent)
        with np.errstate(over="ignore", invalid="ignore"):  # as in the fit: an overflow shows as inf
            self.check(space, xs, *rng.integers(0, n, 3))

    @staticmethod
    def check(space, xs, i, j, k):
        from grussbounds.conditions import _PRUNE_SHARE, _filtered_rows
        from grussbounds.space import _real_view, row_distances

        space, xs = _real_view(space, xs)  # a fit filters the real view of complex rows
        n, dim = xs.shape
        cb, center = xs[i], (xs[j] + xs[k]) / 2.0  # a seed pass's base, and a center between rows (or on one)
        db = row_distances(space, xs, cb)
        base = (cb, db, float(db.max()))
        rows, bounds = _filtered_rows(space, xs, center, base)
        moved = norm(space, center - cb)
        size = base[2] ** 2 + 2.0 * (2.0 * norm(space, cb) + base[2]) * moved + moved ** 2
        err = 4.0 * (dim + 8) * 2.0 ** -53 * size
        if not (np.finfo(np.float64).tiny <= err and 2.0 * size < math.inf):
            assert rows is None and bounds is None  # the bound is not a normal number, or a sum may overflow
            return
        if rows is None:
            return  # over a quarter of the rows are left
        full = row_distances(space, xs, center)
        assert (bounds >= full).all()
        assert len(rows) <= _PRUNE_SHARE * n and (np.diff(rows) > 0).all()
        assert np.isin(np.flatnonzero(full == full.max()), rows).all()  # every first of equals
        measured = row_distances(space, np.take(xs, rows, axis=0), center)
        far = int(measured.argmax())
        assert rows[far] == int(full.argmax()) and measured[far].hex() == full.max().hex()


def centred_blocks(rng, scale=1.0):
    """Several blocks of 3-wide normal rows, the first row at their middle, so that both seed passes prune."""
    pts = several_blocks(rng, 3)
    pts[0] = 0.0
    return pts * scale


class TestSecondSeedPass:
    """The second seed pass, from the row farthest from ``xs[0]``, measures only the rows that can lie as far
    from it as the farthest sample row, and finds the full pass's row and distance."""

    @pytest.fixture
    def seed_rows(self, monkeypatch):
        """The rows the second seed pass chose, one entry per fit (None when it measures every row)."""
        from grussbounds import conditions

        chosen, pick = [], conditions._sweep_rows

        def recorded(space, xs, center, far, anchor):
            rows = pick(space, xs, center, far, anchor)
            if center.tobytes() == xs[int(np.argmax(reference_norms(xs - xs[0])))].tobytes():  # from the seed row
                chosen.append(None if rows is None else rows.copy())
            return rows

        monkeypatch.setattr(conditions, "_sweep_rows", recorded)
        return chosen

    def test_the_first_of_tied_farthest_rows_wins_across_blocks(self, rng, monkeypatch, seed_rows):
        # p is farthest from xs[0] = 0, about the anchor's center; q2, q1, q3 lie 25 from p in three later blocks,
        # at different distances from xs[0], and every other row lies within 4 of xs[0], so within 20 of p
        step = block_rows(3)
        pts = centred_blocks(rng) * 0.5
        p, ties = [16.0, 0.0, 0.0], {step + 7: [-8.0, 7.0, 0.0], 2 * step + 3: [-9.0, 0.0, 0.0], 3 * step: [-4.0, 15.0, 0.0]}
        pts[5] = p
        for row, q in ties.items():
            pts[row] = q
        from grussbounds import conditions

        found, farthest = [], conditions._farthest
        monkeypatch.setattr(conditions, "_farthest", lambda space, xs, center, *args: found.append(
            (center, farthest(space, xs, center, *args))) or found[-1][1])
        rows = passes(monkeypatch)
        encl = fit_enclosure(Space(3), pts)
        kept = seed_rows[0].tolist()
        assert {5, *ties} <= set(kept) and 4 * len(kept) < len(pts) and rows.count(len(pts)) == 1  # a pruned second pass
        seed = [result for center, result in found if center.tobytes() == pts[5].tobytes()]
        assert seed[0][:2] == (step + 7, 25.0) == (int(np.argmax(reference_norms(pts - pts[5]))), 25.0)
        lo, hi, _ = reference_fit(pts)
        assert encl.lo.tobytes() == lo.tobytes() and encl.hi.tobytes() == hi.tobytes()

    @pytest.mark.parametrize("scale", [2.0 ** -532, 1.0, 2.0 ** 498])
    def test_extreme_scales_keep_the_reference_bits(self, monkeypatch, seed_rows, scale):
        # about 1e-160 the squared distances leave the normal range and nothing is pruned; about 1e150 they are
        # normal numbers, and a power-of-two scale prunes exactly the rows it prunes at scale 1
        pts = centred_blocks(np.random.default_rng(7), scale)
        encl = fit_enclosure(Space(3), pts)
        lo, hi, _ = reference_fit(pts)
        assert encl.lo.tobytes() == lo.tobytes() and encl.hi.tobytes() == hi.tobytes()
        if scale < 1.0:
            assert seed_rows == [None]
        else:
            fit_enclosure(Space(3), centred_blocks(np.random.default_rng(7)))
            assert seed_rows[0] is not None and seed_rows[0].tolist() == seed_rows[1].tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_filtering_the_kept_rows_equals_a_fresh_comparison(self, data):
        from grussbounds.conditions import _PRUNE_SHARE, _kept_rows

        halves = st.integers(-2, 18).map(lambda k: k / 2.0)  # repeated values: ties with the thresholds
        d0 = np.array(data.draw(st.lists(halves.filter(lambda v: v >= 0.0), min_size=1, max_size=40)))
        n = len(d0)
        steps = data.draw(st.lists(st.tuples(halves, st.integers(0, n - 1)), min_size=1, max_size=8))
        anchor = [np.zeros(3), d0, None, math.inf]
        for thr, far in zip(sorted(t for t, _ in steps), (f for _, f in steps)):
            expected = np.flatnonzero((d0 >= thr) | (np.arange(n) == far))
            rows = _kept_rows(anchor, thr, far)
            if len(expected) > _PRUNE_SHARE * n:
                assert rows is None
            else:
                assert rows.tolist() == expected.tolist() and anchor[2] is rows and anchor[3] == thr

    def test_nothing_of_the_anchor_outlives_the_fit(self, rng, monkeypatch):
        from grussbounds import conditions

        refs, measure = [], conditions.row_distances

        def recorded(space, xs, c):
            dists = measure(space, xs, c)
            refs.append((len(xs), weakref.ref(dists)))
            return dists

        monkeypatch.setattr(conditions, "row_distances", recorded)
        pts = centred_blocks(rng)
        encl = fit_enclosure(Space(3), pts)
        full = [ref for n, ref in refs if n == len(pts)]
        assert len(full) == 1 and len(refs) > 3  # the anchor's distances, from the one full pass, and pruned passes
        assert full[0]() is None and all(ref() is None for _, ref in refs)
        assert check_ball(encl, pts).holds
