import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import grussbounds
from grussbounds import (
    ContractViolationError,
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
from grussbounds.bounds import CHAINS
from grussbounds.cli import evaluate_tag, main
from grussbounds.instancefile import Instance, parse_document

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


class TestChainTable:
    def test_every_tag_listed(self):
        assert list(CHAINS) == [
            "1.2", "1.4", "1.5", "1.6", "1.7", "1.8", "1.9", "2.3", "2.7", "2.8", "2.9", "2.11", "R2.7"
        ]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("tag", list(CHAINS))
    def test_matches_direct_builder(self, rng, tag, field):
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
            enclosures={"x": fit_enclosure(space, xs), "y": fit_enclosure(space, ys)},
            disc=(complex(disc.lo[0]), complex(disc.hi[0])),
        )
        chain, fitted, used_disc = evaluate_tag(inst, tag, fit=False, check=True, holder_p=3.0)
        ref = direct_chain(tag, inst, 3.0)
        assert fitted == {}
        assert used_disc == (inst.disc if CHAINS[tag].disc else None)
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
        assert code == 2 and out == ""
        assert err.startswith("error: chain 1.6:") and "overflow" in err


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
