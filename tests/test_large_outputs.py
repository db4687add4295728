"""Chain outputs on seeded inputs, held to recorded bits.

The bundled instances are far smaller than one row block of the per-row
kernels, so they never reach the blocked paths. ``data/large_outputs.json``
holds, for seeded inputs of 3 * step + 5 rows (``step`` the rows of one block
at that width), the fitted enclosures and disc, every chain's values and
labels (the forward-difference chains at Holder exponents 2 and inf), the ball
and box slacks of xs (as SHA-256 digests of their bytes) and, on real spaces,
the reverse-Jensen gaps, all as hex floats. The file was recorded with the
whole-array kernels, before the row kernels were blocked; the blocked kernels
must reproduce it exactly. It was recorded again when the weighted sums over
the rows that BLAS computes were split into chunks that it runs on one thread,
so that the outputs do not depend on the BLAS thread count, and again when
every weighted sum of a functional or link (the Chebyshev functional, the
scalar statistics, ``vector_gruss``, R2.7's square functional and the
complementary weight) became one ``space._weighted_sum``, and again when the
norms, distances, means, variance, mad, slacks and fits of complex rows moved
onto their real view, whose real kernels sum in another order than einsum.
Only the complex cases moved; their links and slacks agree with the
term-by-term complex sums of ``brute.py`` to 1e-12.

``one_block`` holds the same outputs at n = 2 and 8 (one row block, real,
complex and with a metric), recorded before the chains were evaluated through
one table of statistics and link formulas, which must reproduce them exactly.

Regenerate (only when an output is meant to change) with
``python tests/test_large_outputs.py``, from the root of the repository.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grussbounds as gb

DATA = Path(__file__).parent / "data" / "large_outputs.json"

#: name -> (dim, field, with_metric)
CASES = {
    "real3": (3, "real", False),
    "complex3": (3, "complex", False),
    "real3_metric": (3, "real", True),
    "real32": (32, "real", False),
}
SEED = 9

#: The one-block cases: the real and complex ones, and the one with a metric, at these n.
ONE_BLOCK = {"real3": (2, 8), "complex3": (2, 8), "real3_metric": (2, 8)}


def _hex(v):
    if isinstance(v, (complex, np.complexfloating)):
        return [float(v.real).hex(), float(v.imag).hex()]
    return float(v).hex()


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def case_inputs(name: str, n: int):
    dim, field, with_metric = CASES[name]
    rng = np.random.default_rng([SEED, list(CASES).index(name)])
    space = gb.Space(dim, field, rng.uniform(0.2, 3.0, dim) if with_metric else None)

    def draw(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if space.is_complex else a

    w = rng.exponential(size=n)
    xs, ys, alphas = draw(n, dim), draw(n, dim), draw(n)
    xs[1] = -0.0
    return space, gb.ProbabilityVector(w / w.sum()), xs, ys, alphas


def outputs(name: str, n: int) -> dict:
    """Every recorded value of one case, as hex floats and digests."""
    space, p, xs, ys, alphas = case_inputs(name, n)
    ws = gb.WeightedSequence(space, p, xs=xs, ys=ys, alphas=alphas)
    ex = gb.fit_enclosure(space, ws.xs)
    ey = gb.fit_enclosure(space, ws.ys)
    de = gb.fit_enclosure(gb.Space(1, "complex"), np.asarray(ws.alphas, dtype=np.complex128)[:, None])
    a, A = complex(de.lo[0]), complex(de.hi[0])
    chains = {
        "2.3": gb.bound_chebyshev(ex, ws),
        "2.7": gb.bound_chebyshev_gruss(ex, ey, ws),
        "2.8": gb.bound_variance(ex, p, ws.xs),
        "2.9": gb.bound_scalar_weighted(ex, ws),
        "2.11": gb.bound_scalar_weighted(ex, ws, disc=(a, A)),
        "R2.7": gb.bound_complex_sequence(a, A, p, ws.alphas),
        "1.6": gb.bound_forward_difference(ws),
        "1.8": gb.bound_forward_difference_self(space, p, ws.xs),
        "1.6@inf": gb.bound_forward_difference(ws, holder_p=math.inf),
        "1.8@inf": gb.bound_forward_difference_self(space, p, ws.xs, holder_p=math.inf),
    }
    out = {
        "n": n,
        "x_lo": [_hex(v) for v in ex.lo],
        "x_hi": [_hex(v) for v in ex.hi],
        "y_lo": [_hex(v) for v in ey.lo],
        "y_hi": [_hex(v) for v in ey.hi],
        "disc": [_hex(a), _hex(A)],
        "chains": {tag: [_hex(v) for v in chain.values()] for tag, chain in chains.items()},
        "labels": {
            tag: [chain.equation, chain.functional_label] + [f"{link.label} [{link.equation}]" for link in chain.links]
            for tag, chain in chains.items()
        },
        "chebyshev_at_center": _hex(gb.chebyshev(ws, ex.center)),
        "ball_x_sha256": _digest(gb.check_ball(ex, ws.xs).slacks),
        "box_x_sha256": _digest(gb.check_box(ex, ws.xs).slacks),
    }
    if not space.is_complex:
        rep = gb.reverse_jensen(space, gb.get_oracle("squared_norm", space), p.weights, ws.xs)
        out["jensen"] = [_hex(rep.gap), _hex(rep.pairing_gap)] + [_hex(v) for v in rep.chain.values()]
    return out


def record_rows(dim: int) -> int:
    """3 * step + 5 rows, ``step`` the rows of one block ``dim`` wide."""
    from grussbounds.space import BLOCK_ELEMS, COLUMN_ROWS

    return 3 * max(COLUMN_ROWS, BLOCK_ELEMS // dim) + 5


@pytest.mark.parametrize("name", list(CASES))
def test_blocked_outputs_equal_the_recorded_bits(name):
    from grussbounds.space import BLOCK_ELEMS, COLUMN_ROWS

    recorded = json.loads(DATA.read_text())["cases"][name]
    assert recorded["n"] > 2 * max(COLUMN_ROWS, BLOCK_ELEMS // CASES[name][0])  # three blocks or more
    assert outputs(name, recorded["n"]) == recorded


@pytest.mark.parametrize("name, n", [(name, n) for name, sizes in ONE_BLOCK.items() for n in sizes])
def test_one_block_outputs_equal_the_recorded_bits(name, n):
    from grussbounds.space import BLOCK_ELEMS, COLUMN_ROWS

    assert n < max(COLUMN_ROWS, BLOCK_ELEMS // CASES[name][0])  # one block
    assert outputs(name, n) == json.loads(DATA.read_text())["one_block"][f"{name}/n{n}"]


@pytest.mark.parametrize("key", ["cases/complex3", "one_block/complex3/n2", "one_block/complex3/n8"])
def test_the_complex_outputs_agree_with_the_brute_sums(key):
    # the recorded complex outputs are the real view's bits; term-by-term complex sums give their links to 1e-12
    from brute import brute_chebyshev, brute_inner, brute_mean, brute_variance

    recorded = json.loads(DATA.read_text())
    r = recorded["cases"]["complex3"] if key.startswith("cases") else recorded["one_block"][key.split("/", 1)[1]]
    space, p, xs, ys, alphas = case_inputs("complex3", r["n"])
    w, xl, yl, al = p.weights.tolist(), xs.tolist(), ys.tolist(), alphas.tolist()
    pair = lambda h: complex(float.fromhex(h[0]), float.fromhex(h[1]))
    lo, hi = [pair(v) for v in r["x_lo"]], [pair(v) for v in r["x_hi"]]

    def diam(a, b):
        d = [pair(v) - pair(u) for u, v in zip(a, b)]
        return math.sqrt(brute_inner(d, d).real)

    def mad(rows):
        mean = brute_mean(w, rows)
        devs = [[x - m for x, m in zip(row, mean)] for row in rows]
        return sum(pi * math.sqrt(brute_inner(d, d).real) for pi, d in zip(w, devs))

    abar = sum(pi * complex(a) for pi, a in zip(w, al))
    amad, avar = (sum(pi * abs(complex(a) - abar) ** k for pi, a in zip(w, al)) for k in (1, 2))
    dx, dy, disc = diam(r["x_lo"], r["x_hi"]), diam(r["y_lo"], r["y_hi"]), abs(pair(r["disc"][1]) - pair(r["disc"][0]))
    vx, vy, cheb = brute_variance(w, xl), brute_variance(w, yl), brute_chebyshev(w, xl, yl)
    expected = {
        "|chebyshev(p;x,y)|": abs(cheb), "variance(p;x)": vx, "0.5*diam(x)*mad(y) [2.3]": 0.5 * dx * mad(yl),
        "0.5*diam(x)*std(y) [2.3]": 0.5 * dx * math.sqrt(vy), "0.25*diam(x)*diam(y) [1.4]": 0.25 * dx * dy,
        "0.5*diam(x)*mad(x) [2.8]": 0.5 * dx * mad(xl), "0.25*diam(x)^2 [1.5]": 0.25 * dx * dx,
        "0.5*diam(x)*amad(alpha) [2.9]": 0.5 * dx * amad, "0.5*diam(x)*astd(alpha) [2.9]": 0.5 * dx * math.sqrt(avar),
        "0.25*|A-a|*diam(x) [1.2]": 0.25 * disc * dx,
    }
    checked = [(float.fromhex(value), expected[label]) for tag, values in r["chains"].items()
               for label, value in zip(r["labels"][tag][1:], values) if label in expected]
    assert len(checked) == 19 and all(got == pytest.approx(want, rel=1e-12) for got, want in checked)
    assert pair(r["chebyshev_at_center"]) == pytest.approx(cheb, rel=1e-12)
    encl, center = gb.Enclosure(space, lo, hi), [(a + b) / 2 for a, b in zip(lo, hi)]
    box, ball = gb.check_box(encl, xs).slacks, gb.check_ball(encl, xs).slacks  # the recorded digests' slacks
    for i in range(0, len(xl), max(1, len(xl) // 500)):
        x = xl[i]
        edge = brute_inner([b - v for b, v in zip(hi, x)], [v - a for v, a in zip(x, lo)]).real
        dev = [v - c for v, c in zip(x, center)]
        reach = math.sqrt(brute_inner(dev, dev).real)
        assert abs(box[i] - edge) <= 1e-12 * dx * dx and abs(ball[i] - (dx / 2 - reach)) <= 1e-12 * dx


def test_the_outputs_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot or complex matrix-vector product over its threads, which rounds differently; on
    # 32-wide rows the row-block sums of vector_gruss and the fit's filtered passes are matrix-vector products
    script = ("import json, test_large_outputs as t; "
              "print(json.dumps([t.outputs(k, t.record_rows(t.CASES[k][0])) for k in ('real3', 'complex3', 'real32')]))")
    path = os.pathsep.join([str(DATA.parents[1]), str(DATA.parents[2] / "src")])
    runs = [
        subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                       env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")
    ]
    assert runs[0] == runs[1] and [case["n"] for case in json.loads(runs[0])] == [record_rows(3)] * 2 + [record_rows(32)]


if __name__ == "__main__":
    DATA.write_text(json.dumps({
        "seed": SEED,
        "cases": {k: outputs(k, record_rows(v[0])) for k, v in CASES.items()},
        "one_block": {f"{k}/n{n}": outputs(k, n) for k, sizes in ONE_BLOCK.items() for n in sizes},
    }, indent=1) + "\n")
