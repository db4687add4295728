import numpy as np
import pytest

from brute import brute_chebyshev, brute_gruss, brute_variance
from conftest import random_enclosure, random_prob, random_space, random_vector
from grussbounds import (
    ContractViolationError,
    DegenerateInputError,
    DimensionMismatchError,
    Enclosure,
    ProbabilityVector,
    Space,
    WeightedSequence,
    alpha_abs_deviation,
    alpha_variance,
    bound_complex_sequence,
    chebyshev,
    check_scalar_disc,
    identity_residual_24,
    identity_residual_210,
    mad,
    pair_scale,
    variance,
    vector_gruss,
)
from grussbounds.functionals import _Centered
from grussbounds.space import (
    BLAS_ENTRIES, BLOCK_ELEMS, COLUMN_ROWS, COMPLEX, REAL, _blocks, _by_columns, _real_view, _weighted_sum, norm,
    row_norms,
)
from numpy_reference import reference_pairing


def random_ws(rng, space=None, n=None, with_ys=True, with_alphas=False, scale=2.0):
    space = space or random_space(rng, max_dim=6)
    n = n or int(rng.integers(1, 9))
    xs = np.array([random_vector(rng, space, scale) for _ in range(n)])
    ys = np.array([random_vector(rng, space, scale) for _ in range(n)]) if with_ys else None
    alphas = None
    if with_alphas:
        alphas = random_vector(rng, Space(n, space.field))
    return WeightedSequence(space, random_prob(rng, n), xs=xs, ys=ys, alphas=alphas)


class TestWeightedSequence:
    def test_length_mismatch(self):
        sp = Space(1)
        with pytest.raises(DimensionMismatchError):
            WeightedSequence(sp, ProbabilityVector([1.0]), xs=np.array([[0.0], [1.0]]))
        with pytest.raises(DimensionMismatchError):
            WeightedSequence(
                sp, ProbabilityVector([0.5, 0.5]), xs=np.array([[0.0], [1.0]]), ys=np.array([[0.0]])
            )

    def test_missing_parts_rejected_by_ops(self):
        sp = Space(1)
        ws = WeightedSequence(sp, ProbabilityVector([1.0]), xs=np.array([[0.0]]))
        with pytest.raises(ContractViolationError):
            chebyshev(ws)
        with pytest.raises(ContractViolationError):
            vector_gruss(ws)


#: Every entry point that takes a scalar sequence, run on three weights. The
#: disc check has no weights, so it takes no length from them.
ALPHA_ENTRY_POINTS = {
    "WeightedSequence": lambda al: WeightedSequence(Space(1), ProbabilityVector.uniform(3), xs=np.zeros((3, 1)), alphas=al),
    "check_scalar_disc": lambda al: check_scalar_disc(-10.0, 10.0, al),
    "bound_complex_sequence": lambda al: bound_complex_sequence(-10.0, 10.0, ProbabilityVector.uniform(3), al),
    "alpha_abs_deviation": lambda al: alpha_abs_deviation(ProbabilityVector.uniform(3), al),
    "alpha_variance": lambda al: alpha_variance(ProbabilityVector.uniform(3), al),
}
WEIGHTED = ("WeightedSequence", "bound_complex_sequence", "alpha_abs_deviation", "alpha_variance")

#: (id, bad alphas, expected error, entry points that must reject them). Rows
#: that some entry point let through before every entry point shared one
#: validator say after "parent:" what those entry points did instead.
BAD_ALPHAS = [
    ("complex on a real space, parent: TypeError", [1j, 0.0, 1.0], DimensionMismatchError, ("WeightedSequence",)),
    ("strings, parent: ValueError or TypeError", ["a", "b", "c"], DimensionMismatchError, tuple(ALPHA_ENTRY_POINTS)),
    ("a column, parent: alpha_variance 50.0", [[1.0], [2.0], [3.0]], DimensionMismatchError, tuple(ALPHA_ENTRY_POINTS)),
    ("one for three weights, parent: 0.0", [5.0], DimensionMismatchError, WEIGHTED),
    ("NaN, parent: alpha_* nan", [1.0, np.nan, 2.0], ContractViolationError, tuple(ALPHA_ENTRY_POINTS)),
    ("empty, parent: DimensionMismatchError or nan", [], DegenerateInputError, tuple(ALPHA_ENTRY_POINTS)),
    ("numeric strings, parent: parsed", ["1.5", " 2 ", "3"], DimensionMismatchError, tuple(ALPHA_ENTRY_POINTS)),
    ("bytes, parent: parsed", [b"1", b"2", b"3"], DimensionMismatchError, tuple(ALPHA_ENTRY_POINTS)),
    ("bools, parent: read as 0 and 1", [True, False, True], DimensionMismatchError, tuple(ALPHA_ENTRY_POINTS)),
    ("objects, parent: converted", np.array([1, 2, 3], dtype=object), DimensionMismatchError, tuple(ALPHA_ENTRY_POINTS)),
]


class TestAlphaValidation:
    @pytest.mark.parametrize(
        "entry, alphas, error",
        [(entry, alphas, error) for _, alphas, error, entries in BAD_ALPHAS for entry in entries],
        ids=[f"{entry}-{name}" for name, _, _, entries in BAD_ALPHAS for entry in entries],
    )
    def test_bad_alphas_raise_a_library_error(self, entry, alphas, error):
        with pytest.raises(error):
            ALPHA_ENTRY_POINTS[entry](alphas)

    def test_alpha_variance_value(self):
        assert alpha_variance(ProbabilityVector([0.2, 0.3, 0.5]), [1.0, 2.0, 3.0]) == pytest.approx(0.61)

    def test_complex_array_is_not_truncated(self):
        with pytest.raises(DimensionMismatchError):
            WeightedSequence(Space(1), ProbabilityVector.uniform(3), xs=np.zeros((3, 1)), alphas=np.array([1j, 0, 1]))
        assert alpha_variance(ProbabilityVector.uniform(2), np.array([1j, -1j])) == pytest.approx(1.0)

    def test_bare_scalar_reads_as_one_alpha(self):
        p = ProbabilityVector([1.0])
        ws = WeightedSequence(Space(1), p, xs=np.zeros((1, 1)), alphas=2.0)
        assert ws.alphas.shape == (1,)
        assert len(check_scalar_disc(0.0, 4.0, 2.0)) == 1
        assert bound_complex_sequence(0.0, 4.0, p, 2.0).values() == (0.0, 0.0, 0.0)
        assert alpha_abs_deviation(p, 2.0) == alpha_variance(p, 2.0) == 0.0

    @pytest.mark.parametrize("entry", list(ALPHA_ENTRY_POINTS))
    def test_callers_array_stays_writeable(self, entry):
        alphas = np.array([1.0, 2.0, 3.0])
        ALPHA_ENTRY_POINTS[entry](alphas)
        assert alphas.flags.writeable
        alphas[0] = 0.0


class TestChebyshev:
    def test_constant_ys(self, rng):
        sp = Space(3)
        n = 5
        xs = np.array([random_vector(rng, sp) for _ in range(n)])
        ws = WeightedSequence(sp, random_prob(rng, n), xs=xs, ys=np.tile([1.0, 2.0, 3.0], (n, 1)))
        assert abs(chebyshev(ws)) <= 1e-12

    def test_two_point_value(self):
        sp = Space(1)
        pts = np.array([[0.0], [1.0]])
        ws = WeightedSequence(sp, ProbabilityVector([0.5, 0.5]), xs=pts, ys=pts)
        assert chebyshev(ws) == pytest.approx(0.25)

    def test_matches_brute_force(self, rng):
        for _ in range(150):
            ws = random_ws(rng)
            expected = brute_chebyshev(ws.p.weights, ws.xs, ws.ys, ws.space.metric)
            got = complex(chebyshev(ws))
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_self_pairing_is_variance(self, rng):
        for _ in range(80):
            space = random_space(rng, max_dim=6)
            n = int(rng.integers(1, 8))
            xs = np.array([random_vector(rng, space) for _ in range(n)])
            p = random_prob(rng, n)
            ws = WeightedSequence(space, p, xs=xs, ys=xs)
            value = chebyshev(ws)
            assert abs(np.imag(value)) <= 1e-12 * max(1.0, abs(value))
            v = variance(space, p, xs)
            assert abs(np.real(value) - v) <= 1e-10 * max(1.0, v)

    def test_swap_conjugates(self, rng):
        for _ in range(80):
            ws = random_ws(rng)
            swapped = WeightedSequence(ws.space, ws.p, xs=ws.ys, ys=ws.xs)
            lhs = complex(chebyshev(ws))
            rhs = complex(chebyshev(swapped))
            assert abs(lhs - np.conj(rhs)) <= 1e-12 * max(1.0, abs(lhs))

    def test_shift_invariance(self, rng):
        for _ in range(80):
            ws = random_ws(rng)
            shift_x = random_vector(rng, ws.space)
            shift_y = random_vector(rng, ws.space)
            shifted = WeightedSequence(
                ws.space, ws.p, xs=ws.xs + shift_x[None, :], ys=ws.ys + shift_y[None, :]
            )
            scale = pair_scale(shifted) + pair_scale(ws)
            assert abs(chebyshev(ws) - chebyshev(shifted)) <= 1e-10 * scale


    @pytest.mark.parametrize("rows_for", [lambda s: COLUMN_ROWS - 1, lambda s: COLUMN_ROWS, lambda s: s + 1,
                                          lambda s: 2 * s + 7], ids=["below-columns", "columns", "step+1", "2step+7"])
    @pytest.mark.parametrize("field, metric", [(REAL, False), (REAL, True), (COMPLEX, False)])
    @pytest.mark.parametrize("dim", [1, 3, 7, 8])
    def test_row_blocks_and_columns_give_the_whole_array_bits(self, rng, dim, field, metric, rows_for):
        space = Space(dim, field, rng.uniform(0.2, 3.0, dim) if metric else None)
        n = rows_for(max(COLUMN_ROWS, BLOCK_ELEMS // dim))
        draw = lambda: rng.standard_normal((n, dim)) + (1j * rng.standard_normal((n, dim)) if field == COMPLEX else 0.0)
        ws = WeightedSequence(space, random_prob(rng, n), xs=draw(), ys=draw())
        w, x, y = ws.p.weights, ws.xs, ws.ys
        ybar = _Centered(space, w, y).center  # the mean as the library sums it, over chunks of rows
        for c in (w @ x, random_vector(rng, space)):
            whole = _weighted_sum(w, reference_pairing(x - c, y - ybar, space.metric), -1)
            assert np.array(chebyshev(ws, c)).tobytes() == whole.tobytes()


class TestVectorGruss:
    def test_constant_alphas(self, rng):
        sp = Space(2)
        n = 4
        xs = np.array([random_vector(rng, sp) for _ in range(n)])
        ws = WeightedSequence(sp, random_prob(rng, n), xs=xs, alphas=np.full(n, 1.7))
        assert norm(sp, vector_gruss(ws)) <= 1e-12 * max(1.0, float(row_norms(sp, xs).max()))

    def test_two_point_value(self):
        sp = Space(1)
        ws = WeightedSequence(
            sp, ProbabilityVector([0.5, 0.5]), xs=np.array([[0.0], [1.0]]), alphas=np.array([0.0, 1.0])
        )
        assert vector_gruss(ws) == pytest.approx([0.25])

    def test_matches_brute_force(self, rng):
        for _ in range(150):
            ws = random_ws(rng, with_ys=False, with_alphas=True)
            expected = np.array(brute_gruss(ws.p.weights, ws.alphas, ws.xs))
            got = vector_gruss(ws)
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(got - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("rows_for", [lambda s: s + 1, lambda s: 2 * s + 7], ids=["step+1", "2step+7"])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 9, 32])
    def test_row_blocks_give_the_whole_array_bits(self, rng, dim, field, rows_for):
        space = Space(dim, field)
        n = rows_for(max(COLUMN_ROWS, BLOCK_ELEMS // dim))
        ws = WeightedSequence(space, random_prob(rng, n), xs=[random_vector(rng, space, 3.0) for _ in range(n)],
                              alphas=random_vector(rng, Space(n, field)))
        w, x, a = ws.p.weights, ws.xs, ws.alphas
        wd, blocks = w * (a - _weighted_sum(w, a, -1)), _blocks(x)
        for c in (w @ x, random_vector(rng, space)):
            # one weighted sum per row block, added in block order; by columns, one per column of a block
            parts = []
            for lo in blocks:
                wb, d = wd[lo:lo + blocks.step], x[lo:lo + blocks.step] - c
                if _by_columns(_real_view(space, x)[1]):  # the real view's width
                    parts.append(np.array([_weighted_sum(wb, d[:, k].copy(), -1) for k in range(dim)]))
                else:
                    parts.append(_weighted_sum(wb, d, -2))
            whole = parts[0]
            for part in parts[1:]:
                whole = whole + part
            got = vector_gruss(ws, c)
            assert got.tobytes() == whole.tobytes()
            terms = wd[:, None] * (x - c)
            assert np.abs(got - terms.sum(axis=0)).max() <= 1e-13 * np.abs(terms).sum()


    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_a_column_of_negative_zero_terms_sums_to_positive_zero(self, rng, field):
        # zero alphas make every term 0 * (x - c), -0.0 below the center; numpy's sum and BLAS's start from +0.0
        space = Space(3, field)
        n = 2 * BLOCK_ELEMS // 3 + 7
        xs = -1.0 - rng.random((n, 3))
        ws = WeightedSequence(space, random_prob(rng, n), xs=xs + (1j * xs if field == COMPLEX else 0.0), alphas=np.zeros(n))
        whole = ((ws.p.weights * 0.0)[:, None] * (ws.xs - 0.0)).sum(axis=0)
        assert vector_gruss(ws, np.zeros(3)).tobytes() == whole.tobytes() == np.zeros(3, space.dtype).tobytes()


class TestWeightedSums:
    """Every weighted sum over the rows (``_weighted_sum``) adds, in row order, the products of chunks of
    ``BLAS_ENTRIES`` entries, which BLAS runs on one thread; one chunk is one product. The whole chunks
    are one stacked product, with the bits of one product per chunk, for any layout of the rows."""

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("dim", [1, 3, 32])
    def test_chunks_of_rows_are_summed_in_order(self, rng, field, dim):
        space = Space(dim, field)
        for width in (dim, 1):
            step = BLAS_ENTRIES // width
            for n in (step, step + 1, 2 * step, 2 * step + 1, 3 * step + 5):
                w = random_prob(rng, n).weights
                a = rng.standard_normal((n, dim) if width == dim else n)
                a = a + 1j * rng.standard_normal(a.shape) if field == COMPLEX else a
                rows = _real_view(space, a)[1] if width == dim else a  # a mean of complex rows is their real view's
                size = BLAS_ENTRIES // (rows.shape[1] if width == dim else 1)
                parts = [w[lo:lo + size] @ rows[lo:lo + size] for lo in range(0, n, size)]
                expected = parts[0]
                for part in parts[1:]:
                    expected = expected + part
                expected = expected.view(space.dtype) if width == dim else expected
                stack = np.stack([a, a[::-1]])
                if width == dim:
                    got, stacked = _Centered(space, w, a).center, _Centered(space, w, stack).center[0, 0]
                else:
                    got, stacked = _weighted_sum(w, a, -1), _weighted_sum(w, stack, -1)[0]
                assert got.tobytes() == stacked.tobytes() == np.asarray(expected).tobytes()

    @staticmethod
    def chunk_loop(w, a, axis):
        """The sum as one product per chunk of rows, added in row order: the reference the stacked product keeps."""
        step = max(1, BLAS_ENTRIES // (a.shape[-1] if axis == -2 else 1))
        total = None
        for lo in range(0, a.shape[axis], step):
            wc, ac = w[..., lo:lo + step], a[..., lo:lo + step, :] if axis == -2 else a[..., lo:lo + step]
            if axis == -2:
                part = wc @ ac if ac.ndim == 2 else np.matmul(wc[..., None, :], ac)
            else:
                part = wc @ ac if ac.ndim == 1 else np.matmul(wc[..., None, :], ac[..., None])[..., 0, 0]
            total = part if total is None else total + part
        return total

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("width", [1, 3, 32])
    def test_the_stacked_product_equals_the_chunk_loop(self, rng, width, field, layout):
        step = BLAS_ENTRIES // width
        for n in (step, 2 * step, 2 * step + 1, 3 * step + 5):
            w = random_prob(rng, n).weights
            a = rng.standard_normal((2 * n, width))
            a = a + 1j * rng.standard_normal(a.shape) if field == COMPLEX else a
            a = {"C": a[:n], "F": np.asfortranarray(a[:n]), "strided": a[::2]}[layout]
            stack = np.stack([a, a[::-1], 2.0 * a])
            stack = np.asfortranarray(stack) if layout == "F" else stack
            ws = np.stack([w, w[::-1], w])
            cases = [(w, a, -2), (w, stack, -2), (ws, stack, -2), (w, a[:, 0], -1), (w, stack[..., 0], -1),
                     (ws, stack[..., 0], -1)]
            for weights, rows, axis in cases:
                got, expected = _weighted_sum(weights, rows, axis), self.chunk_loop(weights, rows, axis)
                assert np.shape(got) == np.shape(expected)
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestVariance:
    def test_constant(self):
        sp = Space(2)
        xs = np.tile([1.0, -1.0], (3, 1))
        assert variance(sp, ProbabilityVector.uniform(3), xs) == pytest.approx(0.0, abs=1e-14)

    def test_two_point_value(self):
        sp = Space(1)
        v = variance(sp, ProbabilityVector([0.5, 0.5]), np.array([[0.0], [1.0]]))
        assert v == pytest.approx(0.25)

    def test_displacement_identity(self, rng):
        for _ in range(150):
            space = random_space(rng, max_dim=6)
            n = int(rng.integers(1, 9))
            xs = np.array([random_vector(rng, space, 2.0) for _ in range(n)])
            p = random_prob(rng, n)
            v = variance(space, p, xs)
            mean = p.weights @ xs
            displacement = float(p.weights @ (row_norms(space, xs - mean[None, :]) ** 2))
            assert abs(v - displacement) <= 1e-10 * max(1.0, displacement)
            assert v >= 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            space = random_space(rng, max_dim=5)
            n = int(rng.integers(1, 7))
            xs = np.array([random_vector(rng, space) for _ in range(n)])
            p = random_prob(rng, n)
            expected = brute_variance(p.weights, xs, space.metric)
            assert variance(space, p, xs) == pytest.approx(expected, rel=1e-10, abs=1e-12)


    @pytest.mark.parametrize("n, dim", [(3000, 5), (40, 3), (3 * COLUMN_ROWS, 2)])
    def test_complex_squares_are_contiguous_and_sum_as_their_copy(self, rng, n, dim):
        # the squared distances of complex rows are a contiguous real array, so their weighted sums read only values
        space = Space(dim, COMPLEX, rng.uniform(0.2, 3.0, dim) if n == 40 else None)
        for _ in range(20):
            xs = space.matrix(rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
            p = random_prob(rng, n)
            sq = _Centered(space, p.weights, xs).sq()
            assert sq.dtype == np.float64 and sq.flags.c_contiguous
            assert variance(space, p, xs).hex() == float(_weighted_sum(p.weights, sq.copy(), -1)).hex()
            assert mad(space, p, xs).hex() == float(_weighted_sum(p.weights, np.sqrt(sq), -1)).hex()


class TestMad:
    def test_constant(self):
        sp = Space(1)
        assert mad(sp, ProbabilityVector.uniform(4), np.tile([3.0], (4, 1))) == 0.0

    def test_two_point_value(self):
        sp = Space(1)
        assert mad(sp, ProbabilityVector([0.5, 0.5]), np.array([[0.0], [1.0]])) == pytest.approx(0.5)

    def test_dominated_by_std(self, rng):
        for _ in range(150):
            space = random_space(rng, max_dim=6)
            n = int(rng.integers(1, 9))
            xs = np.array([random_vector(rng, space, 2.0) for _ in range(n)])
            p = random_prob(rng, n)
            assert mad(space, p, xs) <= np.sqrt(variance(space, p, xs)) + 1e-10
            assert mad(space, p, xs) >= 0.0


class TestIdentities:
    def test_residual_24_random(self, rng):
        for _ in range(200):
            ws = random_ws(rng)
            encl = random_enclosure(rng, ws.space)
            assert identity_residual_24(encl, ws) <= 1e-10 * pair_scale(ws)

    def test_residual_24_constant_ys(self, rng):
        sp = Space(2)
        n = 4
        xs = np.array([random_vector(rng, sp) for _ in range(n)])
        ws = WeightedSequence(sp, random_prob(rng, n), xs=xs, ys=np.tile([2.0, -1.0], (n, 1)))
        encl = random_enclosure(rng, sp)
        assert identity_residual_24(encl, ws) <= 1e-12
        assert abs(chebyshev(ws)) <= 1e-12

    def test_residual_24_arbitrary_center(self, rng):
        # the identity's mechanism is sum p_i (y_i - mean) = 0: any center works
        for _ in range(100):
            ws = random_ws(rng)
            center = random_vector(rng, ws.space, scale=3.0)
            assert abs(chebyshev(ws) - chebyshev(ws, center)) <= 1e-10 * pair_scale(ws)

    def test_residual_210_random(self, rng):
        for _ in range(200):
            ws = random_ws(rng, with_ys=False, with_alphas=True)
            encl = random_enclosure(rng, ws.space)
            scale = max(1.0, float((ws.p.weights * np.abs(ws.alphas) * row_norms(ws.space, ws.xs)).sum()))
            assert identity_residual_210(encl, ws) <= 1e-10 * scale

    def test_residual_210_constant_alphas(self, rng):
        sp = Space(1)
        ws = WeightedSequence(
            sp, ProbabilityVector.uniform(3), xs=np.array([[0.0], [1.0], [2.0]]), alphas=np.full(3, 2.5)
        )
        encl = Enclosure(sp, [0.0], [2.0])
        assert identity_residual_210(encl, ws) <= 1e-12

    def test_residual_210_arbitrary_center(self, rng):
        for _ in range(100):
            ws = random_ws(rng, with_ys=False, with_alphas=True)
            center = random_vector(rng, ws.space, scale=3.0)
            scale = max(1.0, float((ws.p.weights * np.abs(ws.alphas) * row_norms(ws.space, ws.xs)).sum()))
            assert norm(ws.space, vector_gruss(ws) - vector_gruss(ws, center)) <= 1e-10 * scale
