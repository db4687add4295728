"""A complex space computes every quantity that reads only Re<., .> on its real view.

C^d with metric m is R^(2d) with metric (m_1, m_1, ..., m_d, m_d), and C-contiguous complex rows are their
``.view(np.float64)``. On complex rows, the norms, distances, variance, mad and slacks therefore equal, bit for
bit, what the real space gives on the view, and a fit runs the real view's Ritter sweeps: only the canonical
phase of its antipode direction, which the real view's sign rule would not give, is complex arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grussbounds as gb
from grussbounds import conditions
from grussbounds.space import BLOCK_ELEMS, COLUMN_ROWS, COMPLEX, REAL, row_distances, row_norms


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def complex_rows(draw):
    """A complex space of dim 1 to 8, with or without a metric, its real view, and rows on either side of
    ``COLUMN_ROWS`` and of one row block of the view (``BLOCK_ELEMS // (2 dim)`` rows)."""
    dim = draw(st.integers(1, 8))
    n = draw(st.sampled_from([2, 17, COLUMN_ROWS - 1, COLUMN_ROWS, BLOCK_ELEMS // (2 * dim),
                              BLOCK_ELEMS // (2 * dim) + 1, 2 * BLOCK_ELEMS // (2 * dim) + 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    metric = rng.uniform(0.2, 3.0, dim) if draw(st.booleans()) else None
    space = gb.Space(dim, COMPLEX, metric)
    real = gb.Space(2 * dim, REAL, None if metric is None else np.repeat(metric, 2))
    draw_rows = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return space, real, space.matrix(draw_rows(n, dim)), draw_rows(3, dim), rng


class TestRealView:
    def test_the_real_space_is_made_once(self):
        space = gb.Space(3, COMPLEX, [1.0, 2.0, 3.0])
        real = space._real
        assert real is space._real and (real.dim, real.field) == (6, REAL)
        assert real.metric.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        assert gb.Space(2, COMPLEX)._real.metric is None

    @settings(max_examples=60, deadline=None)
    @given(complex_rows())
    def test_each_re_only_quantity_is_the_real_views(self, case):
        space, real, xs, (c, lo, hi), rng = case
        view, c, lo, hi = xs.view(np.float64), *(space.vector(v) for v in (c, lo, hi))
        assert same_bits(row_norms(space, xs), row_norms(real, view))
        assert same_bits(row_distances(space, xs, c), row_distances(real, view, c.view(np.float64)))
        assert gb.norm(space, xs[-1]).hex() == gb.norm(real, view[-1]).hex()

        p = gb.ProbabilityVector.from_nonnegative(rng.exponential(size=len(xs)))
        assert gb.variance(space, p, xs).hex() == gb.variance(real, p, view).hex()
        assert gb.mad(space, p, xs).hex() == gb.mad(real, p, view).hex()

        encl = gb.Enclosure(space, lo, hi)
        seen = gb.Enclosure(real, lo.view(np.float64), hi.view(np.float64))
        assert encl.diameter.hex() == seen.diameter.hex()
        for check in (gb.check_box, gb.check_ball):
            assert same_bits(check(encl, xs).slacks, check(seen, view).slacks)

    @settings(max_examples=60, deadline=None)
    @given(complex_rows())
    def test_a_fit_runs_the_real_views_sweeps(self, case):
        space, real, xs, _, _ = case
        balls, ritter = [], conditions._ritter
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conditions, "_ritter", lambda *args: balls.append(ritter(*args)) or balls[-1])
            fit, seen = gb.fit_enclosure(space, xs), gb.fit_enclosure(real, xs.view(np.float64))
        (center, dmax, far, _), (seen_center, seen_dmax, seen_far, _) = balls
        assert center.tobytes() == seen_center.tobytes() and (dmax, far) == (seen_dmax, seen_far)
        # the antipodes differ only by the direction each field's canonical form picks: the same ball's diameter
        assert abs(fit.diameter - seen.diameter) <= 4 * np.spacing(seen.diameter)
        assert gb.check_ball(fit, xs).holds and gb.check_ball(seen, xs.view(np.float64)).holds
