import tracemalloc

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
    inner,
    norm,
)
from brute import brute_inner
from conftest import random_space, random_vector
from grussbounds.space import BLOCK_ELEMS, COLUMN_ROWS, COMPLEX, REAL, pairing, row_distances, row_norms
from numpy_reference import reference_norms, reference_pairing


class TestSpace:
    @pytest.mark.parametrize("space", [Space(3), Space(2, COMPLEX), Space(2, REAL, metric=[1.0, 2.0])])
    def test_stored_field_attributes_pickle(self, space):
        import pickle

        copy = pickle.loads(pickle.dumps(space))
        assert (copy.dim, copy.field, copy.is_complex, copy.dtype) == (space.dim, space.field, space.is_complex, space.dtype)
        assert copy.dtype == np.dtype(np.complex128 if space.field == COMPLEX else np.float64)
        assert copy.compatible(space) and space.compatible(copy)
        assert repr(copy) == repr(space) and "dtype" not in repr(space)

    def test_compatible_reads_dim_field_and_metric(self):
        sp = Space(2, REAL, metric=[1.0, 2.0])
        assert sp.compatible(Space(2, REAL, metric=np.array([1.0, 2.0])))
        assert not sp.compatible(Space(2, REAL))
        assert not sp.compatible(Space(2, REAL, metric=[1.0, 3.0]))
        assert not sp.compatible(Space(2, COMPLEX, metric=[1.0, 2.0]))
        assert not sp.compatible(Space(3, REAL, metric=[1.0, 2.0, 3.0]))
        assert Space(2).compatible(Space(2)) and not Space(2).compatible(Space(2, COMPLEX))

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

    @pytest.mark.parametrize(
        "validate",
        [
            lambda: Space(2).vector([True, False]),
            lambda: Space(2).vector(["1", "2"]),
            lambda: Space(1, COMPLEX).matrix([["1+2j"], ["3"]]),
            lambda: Space(1).matrix(np.array([[1.0], [2.0]], dtype=object)),
            lambda: Space(1).scalars(["1.5", " 2 "]),
        ],
        ids=["bools", "strings", "complex strings", "objects", "scalar strings"],
    )
    def test_non_numeric_arrays_are_rejected(self, validate):
        # numpy would parse the strings and read the bools as 0 and 1
        with pytest.raises(DimensionMismatchError, match="cannot interpret"):
            validate()


class TestValidatedInputs:
    """An array nothing can write to is validated without a copy; any other is copied."""

    def test_a_read_only_array_is_taken_as_it_is(self, rng):
        space = Space(3, COMPLEX)
        rows = space.matrix(random_rows(rng, space, 5))
        assert space.matrix(rows) is rows
        assert space.matrix(rows[1:]).base is rows  # a read-only view of a read-only array
        alphas = space.scalars(random_rows(rng, space, 4)[:, 0])
        assert space.scalars(alphas) is alphas

    def test_a_writeable_array_is_copied(self, rng):
        space = Space(3)
        rows = rng.standard_normal((5, 3))
        out = space.matrix(rows)
        assert not np.shares_memory(out, rows) and not out.flags.writeable
        rows[0, 0] = 7.0
        assert out[0, 0] != 7.0

    def test_a_read_only_view_of_a_writeable_array_is_copied(self, rng):
        space = Space(3)
        rows = rng.standard_normal((5, 3))
        view = rows[:]
        view.flags.writeable = False
        out = space.matrix(view)
        assert not np.shares_memory(out, rows)
        rows[0, 0] = 7.0
        assert out[0, 0] != 7.0

    def test_another_dtype_or_shape_is_copied_or_rejected(self):
        ints = np.arange(6).reshape(2, 3)
        ints.flags.writeable = False
        assert Space(3).matrix(ints).dtype == np.float64
        one = np.array(2.5)
        one.flags.writeable = False
        assert Space(1).scalars(one).shape == (1,)
        with pytest.raises(DimensionMismatchError):
            Space(2).matrix(Space(3).matrix(np.ones((2, 3))))

    def test_a_read_only_array_is_still_checked_finite(self):
        rows = np.array([[1.0, np.inf]])
        rows.flags.writeable = False
        with pytest.raises(ContractViolationError, match="finite"):
            Space(2).matrix(rows)


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


def same_bits(x, y) -> bool:
    """Equal to the bit, telling -0.0 from 0.0."""
    return x.dtype == y.dtype and np.array_equal(x.view(np.int64), y.view(np.int64))


class TestColumnPath:
    """Real pairings 2 to 7 wide sum column by column from ``COLUMN_ROWS`` rows on;
    every width and row count gives the bits of the one-product sum."""

    @pytest.mark.parametrize("n", [COLUMN_ROWS - 1, COLUMN_ROWS, 3 * COLUMN_ROWS + 5])
    @pytest.mark.parametrize("with_metric", [False, True])
    @pytest.mark.parametrize("dim", range(1, 8))
    def test_real_pairing_and_norms_equal_the_product_sum(self, rng, dim, with_metric, n):
        m = rng.uniform(0.2, 3.0, dim) if with_metric else np.ones(dim)
        space = Space(dim, REAL, m if with_metric else None)
        a = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, dim))
        b = rng.standard_normal((n, dim))
        a[0] = -0.0  # products of -0.0 and +0.0: both sums start at +0.0
        assert same_bits(pairing(space, a, b), (a * b * m).sum(-1))
        assert same_bits(row_norms(space, a), np.sqrt((a * a * m).sum(-1)))

    @pytest.mark.parametrize("n", [COLUMN_ROWS - 1, 3 * COLUMN_ROWS + 5])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("with_metric", [False, True])
    @pytest.mark.parametrize("dim", range(1, 8))
    def test_row_norms_and_distances_equal_the_reference(self, rng, dim, with_metric, field, n):
        metric = rng.uniform(0.2, 3.0, dim) if with_metric else None
        space = Space(dim, field, metric)
        a = np.array([random_vector(rng, space, 10.0) for _ in range(n)])
        a[0] = -0.0
        c = random_vector(rng, space, 10.0)
        assert same_bits(row_norms(space, a), reference_norms(a, metric))
        assert same_bits(row_distances(space, a, c), reference_norms(a - c, metric))

    @pytest.mark.parametrize("n", [COLUMN_ROWS - 1, COLUMN_ROWS + 3])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("dim", range(1, 8))
    def test_each_sequence_of_a_stack_gets_its_own_bits(self, rng, dim, field, n):
        # a (K, n, dim) stack of sequences, as the sharpness search evaluates, with a center per sequence
        metric = rng.uniform(0.2, 3.0, dim) if dim % 2 else None
        space = Space(dim, field, metric)
        a, b = (np.array([random_rows(rng, space, n) for _ in range(3)]) for _ in range(2))
        c = random_rows(rng, space, 3)[:, None, :]
        assert same_bits(row_distances(space, a, c), np.array([reference_norms(x - y, metric) for x, y in zip(a, c)]))
        assert same_bits(pairing(space, a, b), np.array([reference_pairing(x, y, metric) for x, y in zip(a, b)]))


class TestBlockedValidation:
    """A sequence of more than one block is copied a block at a time, each block checked finite as it is copied:
    the same values, messages and ownership as one C-ordered ``np.array`` copy and one check."""

    @staticmethod
    def blocks_of(space, sequence):
        """Three blocks, the last one short, of ``sequence`` ("rows" or "scalars") in ``space``."""
        step = block_rows(space.dim) if sequence == "rows" else BLOCK_ELEMS
        return 2 * step + 7, step

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("sequence", ["rows", "scalars"])
    def test_a_non_finite_entry_in_any_block_raises(self, rng, sequence, field, where, value):
        space = Space(3, field)
        n, step = self.blocks_of(space, sequence)
        a = random_rows(rng, space, n) if sequence == "rows" else random_rows(rng, space, n)[:, 0].copy()
        at = {"first": 0, "middle": step + 3, "last": n - 1}[where]
        at = (at, 1) if sequence == "rows" else at
        if field == COMPLEX and where == "middle":
            a.imag[at] = value  # a finite real part with a non-finite imaginary one
        else:
            a[at] = value
        validate, message = (space.matrix, "vector entries") if sequence == "rows" else (space.scalars, "scalars")
        with pytest.raises(ContractViolationError) as info:
            validate(a)
        assert str(info.value) == f"{message} must be finite"

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64, np.uint8])
    def test_casts_give_the_values_np_array_gives(self, rng, field, dtype):
        space = Space(3, field)
        n, _ = self.blocks_of(space, "rows")
        src = (rng.integers(0, 200, (n, 3)) if np.dtype(dtype).kind in "iu" else rng.standard_normal((n, 3)) * 100).astype(dtype)
        for validate, a in ((space.matrix, src), (space.scalars, src[:, 0].copy()), (space.scalars, src.reshape(-1))):
            out = validate(a)
            assert out.dtype == space.dtype and not out.flags.writeable and not np.shares_memory(out, a)
            assert out.tobytes() == np.array(a, dtype=space.dtype).tobytes()

    def test_a_cast_to_an_infinity_raises(self):
        n, _ = self.blocks_of(Space(3), "rows")
        src = np.ones((n, 3), dtype=np.longdouble)
        src[-1, 2] = np.longdouble("1e400")  # finite where long double is wider than double, infinite as a double
        with np.errstate(over="ignore"), pytest.raises(ContractViolationError, match="vector entries must be finite"):
            Space(3).matrix(src)

    @pytest.mark.parametrize("blocked", [False, True], ids=["one-block", "blocked"])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_other_layouts_are_copied_to_c_order(self, rng, field, blocked):
        space = Space(3, field)
        n = self.blocks_of(space, "rows")[0] if blocked else 40
        rows = random_rows(rng, space, 2 * n)
        frozen = np.asfortranarray(rows[:n])
        frozen.flags.writeable = False  # read-only, but not C-ordered: copied too
        for src in (np.asfortranarray(rows), rows[::2], rows[:, ::-1], rows.T.copy().T, frozen):
            out = space.matrix(src)
            assert out.flags.c_contiguous and not out.flags.writeable and not np.shares_memory(out, src)
            assert out.tobytes() == np.array(src, dtype=space.dtype, order="C").tobytes()
        values = rows[:, 0]  # a strided column
        assert space.scalars(values).flags.c_contiguous
        assert space.scalars(values).tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize("sequence", ["rows", "scalars"])
    def test_writing_to_the_source_afterwards_changes_nothing(self, rng, sequence):
        space = Space(3)
        n, _ = self.blocks_of(space, sequence)
        src = rng.standard_normal((n, 3)) if sequence == "rows" else rng.standard_normal(n)
        out = space.matrix(src) if sequence == "rows" else space.scalars(src)
        before = out.tobytes()
        src[...] = np.nan
        assert out.tobytes() == before and not out.flags.writeable

    def test_rows_allocate_about_their_output(self, rng):
        src = rng.standard_normal((1_000_000, 3))
        tracemalloc.start()
        try:
            out = Space(3).matrix(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes


def random_rows(rng, space, n, scale=10.0):
    a = rng.standard_normal((n, space.dim)) * scale
    return a + 1j * rng.standard_normal((n, space.dim)) * scale if space.is_complex else a


def block_rows(dim):
    """Rows in one block of the per-row kernels at width ``dim``."""
    return max(COLUMN_ROWS, BLOCK_ELEMS // dim)


class TestRowBlocks:
    """The per-row kernels run a block of rows at a time; at and around the block
    boundaries they give the bits of the whole-array expressions."""

    @pytest.mark.parametrize(
        "rows_for", [lambda s: s - 1, lambda s: s, lambda s: s + 1, lambda s: 2 * s + 7],
        ids=["step-1", "step", "step+1", "2step+7"],
    )
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("with_metric", [False, True])
    @pytest.mark.parametrize("dim", [*range(1, 9), 32])
    def test_kernels_equal_the_whole_array_reference(self, rng, dim, with_metric, field, rows_for):
        metric = rng.uniform(0.2, 3.0, dim) if with_metric else None
        space = Space(dim, field, metric)
        step = block_rows(dim)
        n = rows_for(step)
        a, b = random_rows(rng, space, n), random_rows(rng, space, n)
        a[min(step, n - 1)] = -0.0  # the first row of the second block, where there is one
        c = random_vector(rng, space, 10.0)
        assert same_bits(pairing(space, a, b), reference_pairing(a, b, metric))
        assert same_bits(row_norms(space, a), reference_norms(a, metric))
        assert same_bits(row_distances(space, a, c), reference_norms(a - c, metric))

    def test_row_distances_peak_is_the_output_and_two_blocks(self, rng):
        space = Space(3)
        rows = space.matrix(rng.standard_normal((200_000, 3)))
        c = rows[0]
        tracemalloc.start()
        try:
            out = row_distances(space, rows, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 * block_rows(3) * rows.itemsize * 3

    def test_a_block_of_rows_or_fewer_is_one_whole_array_call(self, rng, monkeypatch):
        from grussbounds import space as space_module

        space, calls = Space(3), []
        kernel = space_module._pairing
        monkeypatch.setattr(space_module, "_pairing", lambda *args: calls.append(args[1].shape) or kernel(*args))
        for n in (block_rows(3), block_rows(3) + 1):
            a = random_rows(rng, space, n)
            pairing(space, a, a)
        assert calls == [(block_rows(3), 3), (block_rows(3), 3), (1, 3)]


class TestLayout:
    """``row_norms`` and ``pairing`` give the bits of C-ordered rows whatever the layout of the rows they are
    given, and take C-contiguous rows, views among them, as they are."""

    LAYOUTS = {
        "fortran": np.asfortranarray,
        "strided": lambda a: np.concatenate([a, a])[::2],
        "reversed": lambda a: a[::-1],
        "reversed_columns": lambda a: a[:, ::-1],
    }

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("with_metric", [False, True])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_other_layouts_give_the_c_ordered_bits(self, rng, field, with_metric, layout):
        space = Space(12, field, rng.uniform(0.2, 3.0, 12) if with_metric else None)
        arrange = self.LAYOUTS[layout]
        for _ in range(5):
            a, b = arrange(random_rows(rng, space, 2000)), arrange(random_rows(rng, space, 2000))
            ca, cb = np.ascontiguousarray(a), np.ascontiguousarray(b)
            assert same_bits(row_norms(space, a), row_norms(space, ca))
            assert same_bits(pairing(space, a, b), pairing(space, ca, cb))

    def test_c_contiguous_views_are_not_copied(self, rng, monkeypatch):
        from grussbounds import space as space_module

        space, seen = Space(3), []
        kernel = space_module._pairing
        monkeypatch.setattr(space_module, "_pairing", lambda *args: seen.append(args[1:3]) or kernel(*args))
        grads, d = random_rows(rng, space, 50), rng.standard_normal((50, 4, 3))
        pairing(space, grads[:, None, :], d)  # as gradient_check pairs each gradient with its directions
        row_norms(space, grads)
        (a, b), (rows, again) = seen
        assert a.base is grads and b is d and rows is grads and again is grads


class TestNorm:
    def test_zero(self):
        sp = Space(3)
        assert norm(sp, sp.vector(np.zeros(3))) == 0.0

    def test_pythagorean(self):
        assert norm(Space(2), [3.0, 4.0]) == pytest.approx(5.0)

    def test_complex_modulus(self):
        assert norm(Space(1, COMPLEX), [3.0 + 4.0j]) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            norm(Space(2), [1.0])


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

    def test_from_nonnegative_scales_an_overflowing_total(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = ProbabilityVector.from_nonnegative([1e308, 1e308])
            q = ProbabilityVector.from_nonnegative([1e308, 1e308, 0.0, 5e307])
        assert p.weights.tolist() == [0.5, 0.5]
        assert q.weights.tolist() == [0.4, 0.4, 0.0, 0.2]

    def test_from_nonnegative_zero_total(self):
        with pytest.raises(DegenerateInputError):
            ProbabilityVector.from_nonnegative([0.0, 0.0])

    def test_from_nonnegative_keeps_the_bits_of_the_constructor(self, rng):
        for q in ([2.0, 6.0], [3], [5e-324, 5e-324], [1e-320] * 7, rng.uniform(0.0, 1.0, 33), rng.uniform(0.0, 1e300, 5)):
            q = np.asarray(q, dtype=np.float64)
            p = ProbabilityVector.from_nonnegative(q)
            assert p.weights.tobytes() == ProbabilityVector(q / float(q.sum())).weights.tobytes()
            assert not p.weights.flags.writeable and p.weights is not q

    @pytest.mark.parametrize("q, error, message", [
        ([0.0, 0.0], DegenerateInputError, "total weight must be positive"),
        ([1.0, -1.0], ContractViolationError, "weights must be nonnegative"),
        ([1.0, np.inf], ContractViolationError, "weights must be finite"),
        ([np.nan, 1.0], ContractViolationError, "weights must be finite"),
        ([], DimensionMismatchError, "weights must be a nonempty flat array, got shape (0,)"),
    ])
    def test_from_nonnegative_errors(self, q, error, message):
        with pytest.raises(error) as info:
            ProbabilityVector.from_nonnegative(q)
        assert str(info.value) == message

    @pytest.mark.parametrize("make", [ProbabilityVector, ProbabilityVector.from_nonnegative])
    @pytest.mark.parametrize("q, message", [
        ([np.nan, -1.0, 0.5], "weights must be finite"),
        ([-1.0, np.inf], "weights must be finite"),
        ([-np.inf, 2.0], "weights must be finite"),
        ([0.5, -0.25, 0.75], "weights must be nonnegative"),
    ])
    def test_checks_keep_their_order(self, make, q, message):
        with pytest.raises(ContractViolationError) as info:
            make(np.array(q))
        assert str(info.value) == message

    @pytest.mark.parametrize("q, total", [([0.5, 0.3], "0.8"), ([1e308, 1e308], "inf"), ([0.25] * 3, "0.75")])
    def test_the_sum_message_prints_the_sum(self, q, total):
        with pytest.raises(ContractViolationError) as info:
            ProbabilityVector(q)
        assert str(info.value) == (f"weights must sum to 1 within 1e-09 (got sum {total}); "
                                   "use ProbabilityVector.from_nonnegative to normalize arbitrary weights")

    def test_the_callers_weights_are_never_written_to(self, rng):
        w = rng.exponential(size=100_000)
        w /= w.sum()
        for make, q in ((ProbabilityVector, w), (ProbabilityVector.from_nonnegative, w * 3.0),
                        (ProbabilityVector.from_nonnegative, np.array([1e308, 1e308]))):
            before = q.tobytes()
            p = make(q)
            assert q.tobytes() == before and q.flags.writeable and not np.shares_memory(p.weights, q)

    def test_the_weights_are_divided_in_place_with_the_bits_of_a_division(self, rng):
        w = rng.exponential(size=1000)
        w /= w.sum()
        total = float(np.add.reduce(w))
        assert ProbabilityVector(w).weights.tobytes() == (w / total).tobytes()

    def test_a_stack_of_proposals_is_not_divided_in_place(self, rng):
        from grussbounds.space import _probability_rows

        w = rng.exponential(size=(4, 9))
        w[1] /= w[1].sum()
        before = w.tobytes()
        rows, ok = _probability_rows(w)
        assert w.tobytes() == before and not np.shares_memory(rows, w)
        assert ok.tolist() == [False, True, False, False] and rows[1].tobytes() == ProbabilityVector(w[1]).weights.tobytes()

    def test_weights_allocate_about_their_output(self, rng):
        w = rng.exponential(size=1_000_000)
        w /= w.sum()
        tracemalloc.start()
        try:
            p = ProbabilityVector(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * p.weights.nbytes

    def test_uniform(self):
        assert ProbabilityVector.uniform(4).weights == pytest.approx([0.25] * 4)

    @pytest.mark.parametrize("make", [ProbabilityVector, ProbabilityVector.from_nonnegative])
    @pytest.mark.parametrize(
        "weights",
        [["0.5", "0.5"], [b"1", b"3"], [True, False], [0.5 + 0j, 0.5], [[0.5], [0.25, 0.25]]],
        ids=["strings", "bytes", "bools", "complex", "ragged"],
    )
    def test_non_numeric_weights_are_rejected(self, make, weights):
        with pytest.raises(DimensionMismatchError, match="cannot interpret weights"):
            make(weights)

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
