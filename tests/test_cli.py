import json
import math
import operator
import os
import re
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grussbounds
from grussbounds import (
    ContractViolationError,
    GrussBoundsError,
    InstanceFormatError,
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
    fit_enclosure,
)
from grussbounds import bounds, conditions, instancefile
from grussbounds.bounds import CHAINS
from grussbounds.cli import evaluate_tag, main
from grussbounds.instancefile import Instance, load, parse_document

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_all_conditions_hold(self, capsys):
        code, out, _ = run(capsys, "check", str(INSTANCES / "two_point.json"))
        assert code == 0
        assert "all conditions hold" in out

    def test_exterior_point_names_index(self, capsys):
        code, out, _ = run(capsys, "check", str(INSTANCES / "exterior_point.json"))
        assert code == 1
        assert "index 2" in out

    def test_fit_missing_enclosure(self, capsys, tmp_path):
        doc = {
            "space": {"dim": 1},
            "weights": [0.5, 0.5],
            "sequences": {"xs": [[0.0], [1.0]]},
        }
        path = tmp_path / "nofit.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2  # nothing to check without an enclosure
        code, out, _ = run(capsys, "check", str(path), "--fit")
        assert code == 0
        assert "fitted enclosure x" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", str(INSTANCES / "two_point.json"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["holds"] is True
        assert {c["name"] for c in doc["results"]["conditions"]} >= {"ball(x)", "box(x)", "disc(alpha)"}

    def test_input_digest_is_of_the_files_bytes(self, capsys, tmp_path):
        import hashlib

        path = tmp_path / "crlf.json"
        path.write_bytes((INSTANCES / "two_point.json").read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in path.read_bytes()
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        assert json.loads(out)["results"]["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_fit_reuses_the_fitted_ball_reports(self, capsys, tmp_path, report_calls):
        doc = json.loads((INSTANCES / "two_point.json").read_text())
        del doc["enclosures"]
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path), "--fit", "--json")
        assert code == 0
        assert report_calls == ["box", "box", "box", "disc"]  # each ball form is its fit's own report
        names = [c["name"] for c in json.loads(out)["results"]["conditions"]]
        assert names == ["ball(x)", "box(x)", "ball(y)", "box(y)", "ball(z)", "box(z)", "disc(alpha)"]


class TestBound:
    def test_two_point_chain(self, capsys):
        code, out, _ = run(capsys, "bound", str(INSTANCES / "two_point.json"), "--which", "2.3")
        assert code == 0
        assert out.count("0.25") >= 3
        assert "ordering: holds" in out

    @pytest.mark.parametrize("tag", ["1.2", "1.4", "1.5", "1.6", "1.7", "2.3", "2.7", "2.8", "2.9", "2.11", "1.8", "1.9"])
    def test_all_tags_on_two_point(self, capsys, tag):
        code, out, _ = run(capsys, "bound", str(INSTANCES / "two_point.json"), "--which", tag)
        assert code == 0, out

    def test_complex_disc_chain(self, capsys):
        code, out, _ = run(capsys, "bound", str(INSTANCES / "complex_disc.json"), "--which", "R2.7")
        assert code == 0
        assert "holds" in out

    def test_forward_difference_parallel(self, capsys):
        code, out, _ = run(
            capsys, "bound", str(INSTANCES / "forward_difference.json"), "--which", "1.6", "--holder-p", "2"
        )
        assert code == 0
        assert "tightest" in out
        assert "dominance: holds" in out

    def test_holder_inf(self, capsys):
        code, out, _ = run(
            capsys, "bound", str(INSTANCES / "forward_difference.json"), "--which", "1.6", "--holder-p", "inf"
        )
        assert code == 0
        assert "pnorm(dx,inf)" in out

    @pytest.mark.parametrize("hp", ["1.0001", "10000"])
    def test_holder_link_near_the_ends_does_not_overflow(self, capsys, hp):
        # an exponent near 1 has a conjugate near 10^4: the powers of the
        # difference norms overflow unless the largest norm is factored out
        code, out, err = run(
            capsys, "bound", str(INSTANCES / "forward_difference.json"), "--which", "1.6", "--holder-p", hp, "--json"
        )
        assert (code, err) == (0, "")
        link = json.loads(out)["results"]["links"][1]
        inst = load(INSTANCES / "forward_difference.json")
        dx, dy = np.diff(inst.xs, axis=0), np.diff(inst.ys, axis=0)
        with localcontext() as ctx:
            ctx.prec = 50
            e = Decimal(hp)

            def pnorm(d, e):
                return sum(Decimal(float(v)) ** e for v in np.sqrt((d * d).sum(-1))) ** (1 / e)

            exact = Decimal("0.625") * pnorm(dx, e) * pnorm(dy, e / (e - 1))  # pairidx(p) = 10/16 at n = 4
        assert link["value"] == pytest.approx(float(exact), rel=1e-14)

    def test_long_link_label_keeps_a_space_before_its_tag(self, capsys):
        code, out, _ = run(
            capsys, "bound", str(INSTANCES / "forward_difference.json"), "--which", "1.6", "--holder-p", "1.0001"
        )
        assert code == 0
        assert "  <= pairidx(p)*pnorm(dx,1.0001)*pnorm(dy,10001) [1.6]  " in out
        assert "  <= idxvar(p)*max|dx|*max|dy|              [1.6]  " in out

    def test_equal_weight_tag_rejects_nonuniform(self, capsys, tmp_path):
        doc = {
            "space": {"dim": 1},
            "weights": [0.7, 0.3],
            "sequences": {"xs": [[0.0], [1.0]], "ys": [[0.0], [1.0]]},
        }
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "bound", str(path), "--which", "1.7")
        assert code == 2
        assert "uniform" in err

    def test_bad_tag_lists_valid(self, capsys):
        code, _, err = run(capsys, "bound", str(INSTANCES / "two_point.json"), "--which", "5.1")
        assert code == 2
        assert "2.11" in err and "R2.7" in err

    def test_missing_enclosure_without_fit(self, capsys, tmp_path):
        doc = {
            "space": {"dim": 1},
            "weights": [0.5, 0.5],
            "sequences": {"xs": [[0.0], [1.0]], "ys": [[0.0], [1.0]]},
        }
        path = tmp_path / "noencl.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "bound", str(path), "--which", "2.3")
        assert code == 2
        assert "--fit" in err
        code, out, _ = run(capsys, "bound", str(path), "--which", "2.3", "--fit")
        assert code == 0

    def test_fitted_ball_report_is_not_recomputed(self, capsys, tmp_path, report_calls):
        calls = report_calls
        doc = json.loads((INSTANCES / "two_point.json").read_text())
        del doc["enclosures"]
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "bound", str(path), "--which", "2.3", "--fit")
        assert code == 0 and "hypothesis verified" in out
        assert calls == []  # the fit measured xs; the chain takes that report
        code, _, _ = run(capsys, "bound", str(INSTANCES / "two_point.json"), "--which", "2.3")
        assert code == 0 and calls == ["ball"]  # a supplied enclosure is measured

    @pytest.mark.parametrize("tag", ["2.11", "R2.7"])
    def test_fitted_disc_line(self, capsys, tmp_path, tag):
        doc = json.loads((INSTANCES / "two_point.json").read_text())
        del doc["enclosures"]["a"], doc["enclosures"]["A"]
        path = tmp_path / "nodisc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "bound", str(path), "--which", tag, "--fit")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "fitted disc: a=0j, A=(1+0j)"

    def test_hypothesis_failure_and_unchecked(self, capsys, tmp_path):
        code, _, err = run(capsys, "bound", str(INSTANCES / "exterior_point.json"), "--which", "2.8")
        assert code == 1
        assert "index 2" in err
        # far-exterior point: the unhypothesized inequality really is false,
        # and --unchecked surfaces that as a violated ordering
        code, out, _ = run(
            capsys, "bound", str(INSTANCES / "exterior_point.json"), "--which", "2.8", "--unchecked"
        )
        assert code == 1
        assert "UNVERIFIED" in out and "VIOLATED" in out
        # lightly-weighted exterior point: hypothesis fails, ordering survives
        doc = {
            "space": {"dim": 1},
            "weights": [0.45, 0.45, 0.1],
            "sequences": {"xs": [[0.9], [1.1], [2.05]]},
            "enclosures": {"x_lo": [0.0], "x_hi": [2.0]},
        }
        path = tmp_path / "barely.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "bound", str(path), "--which", "2.8", "--unchecked")
        assert code == 0
        assert "UNVERIFIED" in out and "ordering: holds" in out

    def test_malformed_file(self, capsys):
        code, _, err = run(capsys, "bound", str(INSTANCES / "invalid" / "bad_json.json"), "--which", "2.3")
        assert code == 2
        assert "line 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bound", str(INSTANCES / "nope.json"), "--which", "2.3")
        assert code == 2

    @pytest.mark.parametrize(
        "name", ["bad_weights.json", "bad_vector_length.json", "unknown_key.json"]
    )
    def test_invalid_files_exit_2(self, capsys, name):
        code, _, err = run(capsys, "check", str(INSTANCES / "invalid" / name))
        assert code == 2
        assert err.startswith("error:")

    def test_json_output_echoes_instance(self, capsys):
        code, out, _ = run(capsys, "bound", str(INSTANCES / "two_point.json"), "--which", "2.7", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["sequences"]["xs"] == [[0], [1]]
        assert doc["results"]["which"] == "2.7"
        assert len(doc["results"]["links"]) == 3
        assert doc["results"]["holds"] is True


def direct_chain(tag, inst, holder_p):
    """The chain of ``tag`` from a direct call of its public builder."""
    sp, p, e = inst.space, inst.weights, inst.enclosures
    xy = lambda: WeightedSequence(sp, p, xs=inst.xs, ys=inst.ys)  # noqa: E731
    xa = lambda: WeightedSequence(sp, p, xs=inst.xs, alphas=inst.alphas)  # noqa: E731
    builders = {
        "1.2": lambda: bound_scalar_weighted(e["x"], xa(), disc=inst.disc),
        "1.4": lambda: bound_chebyshev_gruss(e["x"], e["y"], xy()),
        "1.5": lambda: bound_variance(e["x"], p, inst.xs),
        "1.6": lambda: bound_forward_difference(xy(), holder_p=holder_p),
        "1.7": lambda: bound_forward_difference(xy(), holder_p=holder_p),
        "1.8": lambda: bound_forward_difference_self(sp, p, inst.xs, holder_p=holder_p),
        "1.9": lambda: bound_forward_difference_self(sp, p, inst.xs, holder_p=holder_p),
        "2.3": lambda: bound_chebyshev(e["x"], xy()),
        "2.7": lambda: bound_chebyshev_gruss(e["x"], e["y"], xy()),
        "2.8": lambda: bound_variance(e["x"], p, inst.xs),
        "2.9": lambda: bound_scalar_weighted(e["x"], xa()),
        "2.11": lambda: bound_scalar_weighted(e["x"], xa(), disc=inst.disc),
        "R2.7": lambda: bound_complex_sequence(inst.disc[0], inst.disc[1], p, inst.alphas),
    }
    return builders[tag]()


def gate_spy(monkeypatch) -> list:
    """The (enclosure, kind) of each gate report a chain makes from now on."""
    gated, report = [], bounds._report
    monkeypatch.setattr(bounds, "_report", lambda encl, xs, kind: gated.append((encl, kind)) or report(encl, xs, kind))
    return gated


class TestChainTable:
    def test_every_tag_listed(self):
        assert list(CHAINS) == [
            "1.2", "1.4", "1.5", "1.6", "1.7", "1.8", "1.9", "2.3", "2.7", "2.8", "2.9", "2.11", "R2.7"
        ]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("tag", list(CHAINS))
    def test_matches_direct_builder(self, rng, monkeypatch, tag, field):
        # distinct xs, ys and alphas, so an adapter that reads the wrong
        # sequence, enclosure or builder gives different numbers
        def draw(*shape):
            v = rng.standard_normal(shape)
            return v + 1j * rng.standard_normal(shape) if field == "complex" else v

        space = Space(2, field)
        n = 5
        xs, ys, alphas = draw(n, 2), draw(n, 2), draw(n)
        disc = fit_enclosure(Space(1, "complex"), alphas[:, None])
        inst = Instance(
            space=space,
            weights=ProbabilityVector.uniform(n),
            xs=space.matrix(xs),
            ys=space.matrix(ys),
            zs=None,
            alphas=alphas.astype(space.dtype),
            enclosures={"x": fit_enclosure(space, xs), "y": fit_enclosure(space, ys), "disc": disc},
        )
        gated = gate_spy(monkeypatch)
        chain, fitted = evaluate_tag(inst, tag, fit=False, check=True, holder_p=3.0)
        discs = [encl for encl, kind in gated if kind == "disc"]
        ref = direct_chain(tag, inst, 3.0)
        assert fitted == {}
        assert len(discs) == CHAINS[tag].disc and all(encl is disc for encl in discs)  # that disc, not one made again
        assert chain.equation == ref.equation
        assert chain.functional_label == ref.functional_label
        assert chain.functional_value == ref.functional_value
        assert [(l.label, l.value, l.equation) for l in chain.links] == [
            (l.label, l.value, l.equation) for l in ref.links
        ]
        assert chain.ordered == ref.ordered
        assert chain.hypothesis_verified == ref.hypothesis_verified

    @pytest.mark.parametrize(
        "doc, which, error, message",
        [
            # unknown tag, then missing weights
            ({"space": {"dim": 1}}, "5.1", ContractViolationError, "unknown tag"),
            # missing weights, then uniform weights
            ({"space": {"dim": 1}, "sequences": {"xs": [[0.0], [1.0]]}}, "1.7", InstanceFormatError, "weights array"),
            # uniform weights, then a missing sequence
            ({"space": {"dim": 1}, "weights": [0.7, 0.3], "sequences": {"xs": [[0.0], [1.0]]}}, "1.7",
             ContractViolationError, "uniform weights"),
            # a missing sequence, then the disc
            ({"space": {"dim": 1}, "weights": [0.5, 0.5], "sequences": {"xs": [[0.0], [1.0]]}}, "2.11",
             InstanceFormatError, "sequences.alphas"),
            # a missing sequence, then the enclosure
            ({"space": {"dim": 1}, "weights": [0.5, 0.5], "sequences": {"alphas": [0.0, 1.0]}}, "2.9",
             InstanceFormatError, "sequences.xs"),
            # the disc, then the enclosure
            ({"space": {"dim": 1}, "weights": [0.5, 0.5], "sequences": {"xs": [[0.0], [1.0]], "alphas": [0.0, 1.0]}},
             "2.11", InstanceFormatError, "scalar disc"),
            # the enclosures in the listed order
            ({"space": {"dim": 1}, "weights": [0.5, 0.5], "sequences": {"xs": [[0.0], [1.0]], "ys": [[0.0], [1.0]]}},
             "2.7", InstanceFormatError, "'x' enclosure"),
        ],
    )
    def test_error_order(self, doc, which, error, message):
        with pytest.raises(error, match=message):
            evaluate_tag(parse_document(doc), which, fit=False, check=True, holder_p=None)


# -- fuzzing: every tag on every accepted document gives a chain or a library error --

EXTREME = st.builds(operator.mul, st.sampled_from([0.0, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300]), st.floats(1.0, 2.0))
MODERATE = st.builds(operator.mul, st.sampled_from([1.0, -1.0]), st.floats(1e-3, 1e3))


@st.composite
def chain_documents(draw, number, metric, weight, min_n=1):
    """An instance document with xs, ys and alphas, maybe a metric, weights, an x-enclosure and a disc.

    ``number`` draws the real and imaginary parts, ``metric`` the metric
    weights and ``weight`` the raw weights, which are then normalized.
    """
    dim, n = draw(st.integers(1, 3)), draw(st.integers(min_n, 5))
    cplx = draw(st.booleans())

    def scalar():
        return [draw(number), draw(number)] if cplx else draw(number)

    def vectors(k):
        return [[scalar() for _ in range(dim)] for _ in range(k)]

    space = {"dim": dim, "field": "complex" if cplx else "real"}
    if draw(st.booleans()):
        space["metric"] = draw(st.lists(metric, min_size=dim, max_size=dim))
    q = draw(st.lists(weight, min_size=n, max_size=n))
    doc = {
        "space": space,
        "weights": [v / sum(q) for v in q] if draw(st.booleans()) and sum(q) > 0.0 else [1.0 / n] * n,
        "sequences": {"xs": vectors(n), "ys": vectors(n), "alphas": [scalar() for _ in range(n)]},
        "holder_p": draw(st.one_of(st.just("inf"), st.floats(1.0, 1e6, exclude_min=True))),
    }
    if draw(st.booleans()):
        doc.setdefault("enclosures", {}).update(x_lo=vectors(1)[0], x_hi=vectors(1)[0])
    if draw(st.booleans()):
        doc.setdefault("enclosures", {}).update(a=scalar(), A=scalar())
    try:
        return parse_document(doc)
    except InstanceFormatError:  # a degenerate or overflowing enclosure or disc: fit it instead
        del doc["enclosures"]
        return parse_document(doc)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(chain_documents(EXTREME, st.sampled_from([1e-300, 0.5, 3.0, 1e300]), st.sampled_from([0.0, 1e-310, 1e-300, 0.5, 1.0])))
def test_every_tag_gives_a_chain_or_a_library_error(inst):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tag in CHAINS:
            try:
                evaluate_tag(inst, tag, True, True, None)
            except GrussBoundsError:
                pass


@settings(derandomize=True, max_examples=80, deadline=None)
@given(chain_documents(MODERATE, st.floats(0.25, 4.0), st.floats(0.0, 1.0), min_n=2))
def test_moderate_forward_difference_chains_evaluate_at_any_holder_exponent(inst):
    for tag in ("1.6", "1.8"):
        chain, _ = evaluate_tag(inst, tag, True, True, None)
        assert chain.holds()


class TestMalformedInput:
    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}")

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, _, err = run(capsys, "bound", str(path), "--which", "2.3")
        assert code == 2
        assert err.startswith("error: $:")

    def test_overflowing_metric_names_path(self, capsys, tmp_path):
        path = tmp_path / "metric.json"
        path.write_text('{"space": {"dim": 1, "metric": [1e400]}, "weights": [1]}')
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "$.space.metric[0]" in err


    @pytest.mark.parametrize(
        "field, message",
        [
            ("xs", "error: $.sequences.xs[0][0]: scalar must be finite"),
            ("weights", "error: $.weights: weights must be finite"),
            ("metric", "error: $.space.metric[0]: metric weights must be positive finite numbers"),
            ("digits", "error: $: invalid JSON: Exceeds the limit (4300 digits)"),
        ],
    )
    def test_integer_literal_beyond_double_range(self, capsys, tmp_path, field, message):
        huge = {"xs": "1" + "0" * 400, "weights": "1" + "0" * 400, "metric": "1" + "0" * 400, "digits": "1" + "0" * 4400}
        doc = '{"space": {"dim": 2, "metric": [M, 1]}, "weights": [W, 0.5], "sequences": {"xs": [[X, 0], [0, 1]]}}'
        for key, placeholder in (("metric", "M"), ("weights", "W")):
            doc = doc.replace(placeholder, huge[field] if field == key else "0.5")
        path = tmp_path / "huge.json"
        path.write_text(doc.replace("X", huge[field] if field in ("xs", "digits") else "0"))
        code, out, err = run(capsys, "check", str(path), "--fit")
        assert code == 2 and out == ""
        assert err.startswith(message) and err.count("\n") == 1


class TestExtremeMagnitudes:
    def test_large_offset_does_not_cancel(self, capsys, tmp_path):
        lo, hi = 1e8, 1e8 + 1.0
        doc = {
            "space": {"dim": 1},
            "weights": [0.5, 0.5],
            "sequences": {"xs": [[lo], [hi]], "ys": [[lo], [hi]]},
            "enclosures": {"x_lo": [lo], "x_hi": [hi]},
        }
        path = tmp_path / "offset.json"
        path.write_text(json.dumps(doc))
        expected = 0.5 * 0.5 * (hi - lo) ** 2  # p1 p2 (x2 - x1)^2 on two points
        code, out, _ = run(capsys, "bound", str(path), "--which", "2.3")
        assert code == 0
        assert "ordering: holds" in out
        functional = re.findall(r"\|chebyshev\(p;x,y\)\|\s+= (\S+)", out)
        links = re.findall(r"\[2\.3\]\s+(\S+)", out)
        assert len(functional) == 1 and len(links) == 2
        for value in functional + links:
            assert float(value) == pytest.approx(expected, rel=1e-12)
        code, out, _ = run(capsys, "bound", str(path), "--which", "2.8")
        assert code == 0
        (variance,) = re.findall(r"variance\(p;x\)\s+= (\S+)", out)
        assert float(variance) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("as_json", [False, True])
    def test_overflow_is_an_input_error(self, capsys, tmp_path, as_json):
        pts = [[1e200, 0.0], [0.0, 1e200]]
        doc = {"space": {"dim": 2}, "weights": [0.5, 0.5], "sequences": {"xs": pts, "ys": pts}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore"):
            code, out, err = run(capsys, "bound", str(path), "--which", "1.6", *(["--json"] if as_json else []))
        assert code == 2
        assert err.startswith("error: chain 1.6:") and "overflow" in err
        error = {"type": "ContractViolationError", "message": err[len("error: "):-1], "exit_code": 2}
        assert out == (instancefile.dumps({"error": error}) if as_json else "")


    @pytest.mark.parametrize(
        "argv", [("check", "--fit"), ("bound", "--which", "2.3", "--fit"), ("bound", "--which", "1.6")]
    )
    def test_overflow_is_reported_on_one_line(self, capsys, tmp_path, argv):
        pts = [[1e200, 0.0], [0.0, 1e200]]
        doc = {"space": {"dim": 2}, "weights": [0.5, 0.5], "sequences": {"xs": pts, "ys": pts}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would raise here instead of reaching stderr
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "overflow" in err
        assert ("$.sequences.xs" in err) == ("--fit" in argv)

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize(
        "argv, seq",
        [(("check", "--fit"), "xs"), (("bound", "--which", "2.11", "--fit"), "alphas")],
        ids=["check-xs", "bound-alphas"],
    )
    def test_fit_to_identical_points_is_reported_at_its_sequence(self, capsys, tmp_path, argv, seq, as_json):
        doc = {"space": {"dim": 2}, "weights": [0.5, 0.5], "sequences": {"xs": [[1, 2], [1, 2]], "ys": [[0, 1], [1, 0]]}}
        if seq == "alphas":
            doc["sequences"] = {"xs": [[1, 2], [0, 1]], "alphas": [1.5, 1.5]}
        path = tmp_path / "identical.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:], *(["--json"] if as_json else []))
        message = f"$.sequences.{seq}: cannot fit an enclosure to identical points"
        assert code == 2 and err == f"error: {message}\n"
        error = {"type": "DegenerateInputError", "message": message, "exit_code": 2}
        assert out == (instancefile.dumps({"error": error}) if as_json else "")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ((), "oracle 'squared_norm': the finite differences overflow double precision"),
            (("--oracle", "norm_fourth"), "oracle 'norm_fourth': the gradients overflow double precision"),
            (("--json",), "oracle 'squared_norm': the finite differences overflow double precision"),
        ],
        ids=["squared_norm", "norm_fourth", "json"],
    )
    def test_jensen_overflow_is_reported_on_one_line_at_zs(self, capsys, tmp_path, extra, message):
        zs = [[1e160, 0.0], [0.0, 1e160]]
        doc = {"space": {"dim": 2}, "weights": [0.5, 0.5], "sequences": {"zs": zs}, "oracle": "squared_norm"}
        path = tmp_path / "huge_z.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "jensen", str(path), *extra)
        assert code == 2
        assert err == f"error: $.sequences.zs: {message}\n"
        error = {"type": "ContractViolationError", "message": f"$.sequences.zs: {message}", "exit_code": 2}
        assert out == ("" if "--json" not in extra else instancefile.dumps({"error": error}))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [("check",), ("bound", "--which", "2.3")])
    def test_overflowing_enclosure_is_an_input_error(self, capsys, tmp_path, argv):
        pts = [[1e200, 0.0], [0.0, 1e200]]
        doc = {
            "space": {"dim": 2},
            "weights": [0.5, 0.5],
            "sequences": {"xs": pts, "ys": pts},
            "enclosures": {"x_lo": [-1e200, -1e200], "x_hi": [1e200, 1e200]},
        }
        path = tmp_path / "huge_enclosure.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: $.enclosures.x_lo:") and "overflow" in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_slack_fails_without_warning(self, capsys, tmp_path):
        doc = {
            "space": {"dim": 2},
            "weights": [0.5, 0.5],
            "sequences": {"xs": [[1e200, 0.0], [0.0, 1.0]]},
            "enclosures": {"x_lo": [-1.0, -1.0], "x_hi": [1.0, 1.0]},
        }
        path = tmp_path / "huge_point.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and err == ""
        assert "verdict: ball(x) fails at index 0 (slack -inf)" in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("argv", [("check",), ("bound", "--which", "2.7", "--unchecked")])
    def test_overflowing_slack_fails_the_verdict_in_json_too(self, capsys, tmp_path, argv, as_json):
        box = {"x_lo": [-1.0, -1.0], "x_hi": [1.0, 1.0], "y_lo": [-1.0, -1.0], "y_hi": [1.0, 1.0]}
        doc = {
            "space": {"dim": 2},
            "weights": [0.5, 0.5],
            "sequences": {"xs": [[1e200, 0.0], [0.0, 0.0]], "ys": [[1.0, 0.0], [0.0, 0.0]]},
            "enclosures": box,
        }
        path = tmp_path / "huge_point.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:], *(["--json"] if as_json else []))
        assert code == 1 and err == ""
        if as_json:  # JSON has no inf: the slack is written as its text
            slacks = {c["name"]: c["min_slack"] for c in json.loads(out)["results"]["conditions"]}
            assert slacks[next(iter(slacks))] == "-inf"
            assert all(not isinstance(v, str) or v == "-inf" for v in slacks.values())


class TestFileDisc:
    """The disc a/A is an enclosure on the complex line from the file to the chain."""

    def write(self, tmp_path, **enclosures):
        doc = json.loads((INSTANCES / "two_point.json").read_text())
        doc["enclosures"].update(enclosures)
        doc["enclosures"] = {k: v for k, v in doc["enclosures"].items() if v is not None}
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.fixture
    def no_disc_built(self, monkeypatch):
        """No disc is made from antipodes: ``_disc`` fails wherever it is called."""
        for module in (bounds, conditions, instancefile):
            monkeypatch.setattr(module, "_disc", lambda a, A: pytest.fail("a disc built from antipodes"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("argv", [("check",), ("bound", "--which", "2.11"), ("bound", "--which", "R2.7")])
    def test_overflowing_disc_is_an_input_error_at_its_path(self, capsys, tmp_path, argv, as_json):
        path = self.write(tmp_path, a=-1e308, A=1e308)
        code, out, err = run(capsys, argv[0], path, *argv[1:], *(["--json"] if as_json else []))
        message = "$.enclosures.a: enclosure diameter overflows double precision"
        assert code == 2 and err == f"error: {message}\n"
        error = {"type": "InstanceFormatError", "message": message, "exit_code": 2}
        assert out == (instancefile.dumps({"error": error}) if as_json else "")

    @pytest.mark.parametrize("argv", [("check",), ("bound", "--which", "2.11")])
    def test_degenerate_disc_keeps_its_message(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, argv[0], self.write(tmp_path, a=1, A=1.0), *argv[1:])
        assert (code, out, err) == (2, "", "error: $.enclosures.a: degenerate disc: a == A\n")

    @pytest.mark.parametrize("tag", ["2.11", "R2.7"])
    def test_fit_gates_on_the_fitted_disc(self, monkeypatch, tmp_path, no_disc_built, tag):
        inst = load(self.write(tmp_path, a=None, A=None))
        assert inst.disc is None
        gated = gate_spy(monkeypatch)
        chain, fitted = evaluate_tag(inst, tag, fit=True, check=True, holder_p=None)
        assert list(fitted) == ["disc"] and chain.hypothesis_verified
        discs = [encl for encl, kind in gated if kind == "disc"]
        assert len(discs) == 1 and discs[0] is fitted["disc"]

    @pytest.mark.parametrize("argv", [("check", "--fit"), ("bound", "--which", "2.11", "--fit")])
    def test_fitted_disc_is_not_built_again(self, capsys, tmp_path, no_disc_built, argv):
        code, out, err = run(capsys, argv[0], self.write(tmp_path, a=None, A=None), *argv[1:])
        assert (code, err) == (0, "") and "fitted disc: a=0j, A=(1+0j)" in out

    def test_echo_writes_the_disc_after_a_fitted_enclosure(self, capsys, tmp_path):
        path = self.write(tmp_path, x_lo=None, x_hi=None)
        code, out, _ = run(capsys, "bound", path, "--which", "2.11", "--fit", "--json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc["enclosures"]) == ["y_lo", "y_hi", "z_lo", "z_hi", "x_lo", "x_hi", "a", "A"]
        assert (doc["enclosures"]["a"], doc["enclosures"]["A"]) == (0, 1)


class TestJensen:
    def test_two_point(self, capsys):
        code, out, _ = run(capsys, "jensen", str(INSTANCES / "two_point.json"))
        assert code == 0
        assert "jensen_gap" in out and "0.25" in out and "0.5" in out

    def test_improvement_instance(self, capsys):
        code, out, _ = run(capsys, "jensen", str(INSTANCES / "jensen_improvement.json"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["improvement_ratio"] < 0.999
        assert doc["results"]["holds"] is True

    def test_constant_zs(self, capsys, tmp_path):
        doc = {
            "space": {"dim": 1},
            "weights": [0.5, 0.5],
            "sequences": {"zs": [[1.0], [1.0]]},
            "oracle": "squared_norm",
        }
        path = tmp_path / "const.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "jensen", str(path), "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["gap"] == 0
        assert all(link["value"] == 0 for link in results["chain"]["links"])

    def test_faulty_oracle_exits_1(self, capsys):
        code, _, err = run(
            capsys, "jensen", str(INSTANCES / "two_point.json"), "--oracle", "faulty_squared_norm"
        )
        assert code == 1
        assert "gradient check FAILED" in err
        assert "0.09" in err

    def test_unknown_oracle_exits_2(self, capsys):
        code, _, err = run(capsys, "jensen", str(INSTANCES / "two_point.json"), "--oracle", "cubic")
        assert code == 2
        assert "squared_norm" in err  # lists the catalog

    def test_complex_space_exits_2(self, capsys):
        code, _, err = run(capsys, "jensen", str(INSTANCES / "complex_disc.json"), "--oracle", "squared_norm")
        assert code == 2
        assert "real" in err

    def test_missing_zs(self, capsys):
        code, _, err = run(capsys, "jensen", str(INSTANCES / "forward_difference.json"), "--oracle", "squared_norm")
        assert code == 2
        assert "zs" in err


class TestSharpness:
    def test_reports_ratio(self, capsys):
        code, out, _ = run(
            capsys, "sharpness", "--target", "thm23_first", "--n", "2", "--dim", "1",
            "--budget", "300", "--seed", "9",
        )
        assert code == 0
        assert "achieved ratio" in out

    def test_invalid_target_usage_error(self, capsys):
        code, _, err = run(capsys, "sharpness", "--target", "bogus")
        assert code == 2

    @pytest.mark.parametrize("size", [["--n", "10000000000000"], ["--n", "2", "--dim", "10000000000000"]])
    def test_impossible_size_is_a_usage_error(self, capsys, size):
        code, out, err = run(capsys, "sharpness", "--target", "thm25_first", *size)
        assert (code, out) == (2, "")
        assert err.startswith("error: n * dim must be <= ")

    def test_witness_roundtrip_bit_for_bit(self, capsys, tmp_path):
        witness = tmp_path / "witness.json"
        code, out, _ = run(
            capsys, "sharpness", "--target", "rem24_final", "--n", "2", "--dim", "1",
            "--budget", "1500", "--seed", "3", "--dump-witness", str(witness), "--json",
        )
        assert code == 0
        sharp = json.loads(out)
        assert witness.exists()

        code, out, _ = run(capsys, "bound", str(witness), "--which", "2.7", "--json")
        assert code == 0
        bound = json.loads(out)

        f1 = float(sharp["results"]["functional_value"])
        f2 = float(bound["results"]["functional"]["value"])
        b1 = float(sharp["results"]["bound_value"])
        b2 = float(bound["results"]["links"][2]["value"])
        assert f1.hex() == f2.hex()
        assert b1.hex() == b2.hex()

    @pytest.mark.parametrize("where", ["missing/witness.json", "."])
    def test_unwritable_witness_path_is_a_usage_error(self, capsys, tmp_path, where):
        path = tmp_path / where
        code, out, err = run(
            capsys, "sharpness", "--target", "thm23_first", "--budget", "10", "--dump-witness", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_witness_roundtrip_other_targets(self, capsys, tmp_path):
        cases = {
            "thm23_first": ("2.3", 0),
            "thm25_first": ("2.9", 0),
            "fd_equal_weights_max": ("1.7", 0),
        }
        for target, (tag, link_index) in cases.items():
            witness = tmp_path / f"{target}.json"
            code, out, _ = run(
                capsys, "sharpness", "--target", target, "--n", "3", "--dim", "2",
                "--budget", "400", "--seed", "1", "--dump-witness", str(witness), "--json",
            )
            assert code == 0
            sharp = json.loads(out)
            code, out, _ = run(capsys, "bound", str(witness), "--which", tag, "--json")
            assert code == 0, (target, out)
            bound = json.loads(out)
            assert float(sharp["results"]["functional_value"]).hex() == float(
                bound["results"]["functional"]["value"]
            ).hex()
            assert float(sharp["results"]["bound_value"]).hex() == float(
                bound["results"]["links"][link_index]["value"]
            ).hex()


def package_env():
    """Environment whose PYTHONPATH finds the grussbounds package these tests import."""
    root = str(Path(grussbounds.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "grussbounds.cli", "bound", str(INSTANCES / "two_point.json"), "--which", "2.3"],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert result.returncode == 0
        assert "ordering: holds" in result.stdout

    def test_module_entry_point_parse_error(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "grussbounds.cli", "check", str(INSTANCES / "invalid" / "bad_json.json")],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["bound", "exterior_point.json", "--which", "2.3", "--json"], 2),
            (["jensen", "jensen_improvement.json", "--oracle", "faulty_squared_norm", "--json"], 1),
            (["bound", "invalid/bad_weights.json", "--which", "2.3", "--json"], 2),
        ],
    )
    def test_json_failure_prints_one_error_document(self, argv, exit_code):
        import subprocess
        import sys

        argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
        result = subprocess.run(
            [sys.executable, "-m", "grussbounds.cli", *argv], capture_output=True, text=True, env=package_env()
        )
        assert result.returncode == exit_code and result.stderr.count("\n") == 1
        doc = json.loads(result.stdout)  # one document: trailing data would not parse
        assert list(doc) == ["error"] and doc["error"]["exit_code"] == exit_code
        assert result.stderr.endswith(f"{doc['error']['message']}\n")


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_holder_flag(self, capsys):
        code, _, _ = run(
            capsys, "bound", str(INSTANCES / "two_point.json"), "--which", "1.6", "--holder-p", "0.5"
        )
        assert code == 2
