import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_space, random_vector
from grussbounds import Enclosure, InstanceFormatError, ProbabilityVector, Space
from grussbounds.instancefile import (
    Instance,
    dumps,
    instance_document,
    load,
    loads,
    parse_document,
    sha256_hex,
)
from grussbounds.space import COMPLEX


def test_seventeen_digit_floats_roundtrip(rng):
    for _ in range(2000):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
        assert float(format(x, ".17g")) == x


def test_document_roundtrip_real(rng):
    space = Space(3, metric=np.array([1.0, 2.0, 0.5]))
    xs = np.array([random_vector(rng, space) for _ in range(4)])
    ys = np.array([random_vector(rng, space) for _ in range(4)])
    encl = Enclosure(space, random_vector(rng, space), random_vector(rng, space) + 5.0)
    doc = instance_document(
        space,
        weights=ProbabilityVector.uniform(4),
        xs=xs,
        ys=ys,
        enclosures={"x": encl},
        oracle="squared_norm",
        holder_p=2.5,
    )
    inst = loads(dumps(doc))
    assert inst.space.dim == 3 and not inst.space.is_complex
    assert np.array_equal(inst.space.metric, space.metric)
    assert np.array_equal(inst.xs, xs)
    assert np.array_equal(inst.ys, ys)
    assert np.array_equal(inst.enclosures["x"].lo, encl.lo)
    assert np.array_equal(inst.enclosures["x"].hi, encl.hi)
    assert inst.oracle == "squared_norm"
    assert inst.holder_p == 2.5


def test_document_roundtrip_complex(rng):
    space = Space(2, COMPLEX)
    xs = np.array([random_vector(rng, space) for _ in range(3)])
    alphas = np.array([0.5 + 0.25j, -1.0j, 2.0 + 0.0j])
    doc = instance_document(
        space,
        weights=[0.2, 0.3, 0.5],
        xs=xs,
        alphas=alphas,
        disc=(-1j, 1j),
    )
    inst = loads(dumps(doc))
    assert inst.space.is_complex
    assert np.array_equal(inst.xs, xs)
    assert np.array_equal(inst.alphas, alphas)
    assert inst.disc == (-1j, 1j)


def test_reserialization_is_stable(rng):
    space = random_space(rng, max_dim=4)
    xs = np.array([random_vector(rng, space) for _ in range(3)])
    doc = instance_document(space, weights=np.full(3, 1 / 3), xs=xs)
    text1 = dumps(doc)
    inst = loads(text1)
    text2 = dumps(instance_document(inst.space, weights=inst.weights, xs=inst.xs))
    assert text1 == text2


def test_holder_inf_roundtrip():
    doc = instance_document(Space(1), weights=[1.0], xs=np.array([[0.0]]), holder_p=math.inf)
    inst = loads(dumps(doc))
    assert inst.holder_p == math.inf


def test_results_block_is_ignored_on_reingest():
    doc = instance_document(Space(1), weights=[1.0], xs=np.array([[2.0]]))
    doc["results"] = {"anything": [1, 2, 3]}
    inst = loads(dumps(doc))
    assert inst.xs is not None


def test_output_is_valid_json(rng):
    space = Space(2, COMPLEX)
    doc = instance_document(
        space,
        weights=[0.5, 0.5],
        xs=np.array([random_vector(rng, space) for _ in range(2)]),
        disc=(0.0, 1.0 + 1.0j),
    )
    parsed = json.loads(dumps(doc))
    assert parsed["space"]["field"] == "complex"


def test_nonfinite_rejected_in_serialization():
    with pytest.raises(InstanceFormatError):
        dumps({"x": float("nan")})
    with pytest.raises(InstanceFormatError):
        dumps({"x": float("inf")})


def test_float_arrays_serialize_as_one_number_at_a_time_does(rng):
    floats = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16, 1e17]
    floats += (rng.standard_normal(200) * 10.0 ** rng.integers(-320, 300, 200)).tolist()
    mixed = [1, -0.0, 2**70, 5e-324, -3, 1e308]

    def one_at_a_time(atoms):
        return "[" + ", ".join(str(v) if isinstance(v, int) else format(v, ".17g") for v in atoms) + "]"

    for atoms in (floats, mixed, [-0.0], [-1e308, 1e308]):
        assert dumps({"a": atoms}) == '{\n  "a": ' + one_at_a_time(atoms) + "\n}\n"
    with pytest.raises(InstanceFormatError):
        dumps({"a": [0.5, float("inf")]})


class TestParseErrors:
    def error(self, text):
        with pytest.raises(InstanceFormatError) as err:
            loads(text)
        return str(err.value)

    def test_invalid_json_names_location(self):
        message = self.error('{"space": {"dim": 1')
        assert "line 1" in message

    def test_missing_space(self):
        assert "$.space" in self.error('{"weights": [1.0]}')

    def test_bad_dim(self):
        assert "$.space.dim" in self.error('{"space": {"dim": 0}}')
        assert "$.space.dim" in self.error('{"space": {"dim": 1.5}}')

    def test_bad_field(self):
        assert "$.space.field" in self.error('{"space": {"dim": 1, "field": "rational"}}')

    def test_unknown_top_key(self):
        assert "$.extra" in self.error('{"space": {"dim": 1}, "extra": 1}')

    def test_unknown_sequence_key(self):
        assert "$.sequences.points" in self.error('{"space": {"dim": 1}, "sequences": {"points": []}}')

    def test_vector_length(self):
        message = self.error('{"space": {"dim": 2}, "sequences": {"xs": [[0.0, 1.0], [1.0]]}}')
        assert "$.sequences.xs[1]" in message

    def test_weights_sum(self):
        message = self.error('{"space": {"dim": 1}, "weights": [0.5, 0.3]}')
        assert "$.weights" in message

    def test_negative_weight(self):
        assert "$.weights" in self.error('{"space": {"dim": 1}, "weights": [1.5, -0.5]}')

    def test_sequence_weight_length_mismatch(self):
        message = self.error(
            '{"space": {"dim": 1}, "weights": [0.5, 0.5], "sequences": {"xs": [[0.0]]}}'
        )
        assert "$.sequences.xs" in message

    def test_half_enclosure(self):
        message = self.error(
            '{"space": {"dim": 1}, "enclosures": {"x_lo": [0.0]}}'
        )
        assert "x_lo" in message and "x_hi" in message

    def test_degenerate_disc(self):
        message = self.error('{"space": {"dim": 1}, "enclosures": {"a": 1.0, "A": 1.0}}')
        assert "degenerate" in message

    def test_complex_scalar_encoding_enforced(self):
        message = self.error(
            '{"space": {"dim": 1, "field": "complex"}, "sequences": {"alphas": [1.0]}}'
        )
        assert "[re, im]" in message

    def test_real_scalar_rejects_pairs(self):
        message = self.error('{"space": {"dim": 1}, "sequences": {"alphas": [[1.0, 0.0]]}}')
        assert "number" in message

    def test_bad_holder(self):
        assert "$.holder_p" in self.error('{"space": {"dim": 1}, "holder_p": 1.0}')
        assert "$.holder_p" in self.error('{"space": {"dim": 1}, "holder_p": "two"}')

    def test_nan_scalar_rejected(self):
        message = self.error('{"space": {"dim": 1}, "sequences": {"xs": [[NaN]]}}')
        assert "finite" in message or "number" in message


def test_sha256_stable():
    assert sha256_hex("abc") == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_parse_document_requires_mapping():
    with pytest.raises(InstanceFormatError):
        parse_document([1, 2, 3])


def test_load_maps_unreadable_files(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(InstanceFormatError, match="cannot read"):
        load(path)
    with pytest.raises(InstanceFormatError, match="cannot read"):
        load(tmp_path / "missing.json")


REAL2 = '{"space": {"dim": 2}, "sequences": {"xs": %s}}'
COMPLEX1 = '{"space": {"dim": 1, "field": "complex"}, "sequences": {"alphas": %s}}'
MALFORMED = [
    (REAL2 % "[[0.0, 1.0], [1.0]]", "$.sequences.xs[1]: expected 2 coordinates, got 1"),
    (REAL2 % "[[0.0, true]]", "$.sequences.xs[0][1]: expected a number"),
    (REAL2 % '[[0.0, "1"]]', "$.sequences.xs[0][1]: expected a number"),
    (REAL2 % "[[0.0, [1.0]]]", "$.sequences.xs[0][1]: expected a number"),
    (REAL2 % "[[0.0, null]]", "$.sequences.xs[0][1]: expected a number"),
    (REAL2 % "[[0.0, NaN]]", "$.sequences.xs[0][1]: scalar must be finite"),
    (REAL2 % "[[0.0, -Infinity]]", "$.sequences.xs[0][1]: scalar must be finite"),
    (REAL2 % "[]", "$.sequences.xs: expected a nonempty array of vectors"),
    (REAL2 % '"xs"', "$.sequences.xs: expected a nonempty array of vectors"),
    (REAL2 % "[[0.0, 1.0], 2.0]", "$.sequences.xs[1]: expected an array of coordinates"),
    # the first bad entry in document order wins, whatever kind of fault it is
    (REAL2 % "[[0.0, NaN], [1.0]]", "$.sequences.xs[0][1]: scalar must be finite"),
    (REAL2 % '[[0.0, 1.0], [NaN, "a"], [1.0]]', "$.sequences.xs[1][0]: scalar must be finite"),
    (REAL2 % '[[0.0, 1.0], ["a", NaN], [1.0]]', "$.sequences.xs[1][0]: expected a number"),
    (REAL2 % "[[0.0, 1.0], [1.0], [NaN, 0.0]]", "$.sequences.xs[1]: expected 2 coordinates, got 1"),
    ('{"space": {"dim": 1}, "sequences": {"alphas": []}}', "$.sequences.alphas: expected a nonempty array of scalars"),
    ('{"space": {"dim": 1}, "sequences": {"alphas": [1.0, false]}}', "$.sequences.alphas[1]: expected a number"),
    (
        '{"space": {"dim": 1}, "sequences": {"zs": [[0.0], [true]], "xs": [[NaN]]}}',
        "$.sequences.xs[0][0]: scalar must be finite",
    ),
    (COMPLEX1 % "[1.0]", "$.sequences.alphas[0]: complex scalars are encoded as [re, im]"),
    (COMPLEX1 % "[[1.0, true]]", "$.sequences.alphas[0]: [re, im] entries must be numbers"),
    (COMPLEX1 % "[[1.0, 2.0], [1.0, 2.0, 3.0]]", "$.sequences.alphas[1]: complex scalars are encoded as [re, im]"),
    (COMPLEX1 % "[[1.0, NaN], [true, 2.0]]", "$.sequences.alphas[0]: scalar must be finite"),
    (COMPLEX1 % "[[1.0, 2.0], [true, NaN]]", "$.sequences.alphas[1]: [re, im] entries must be numbers"),
    (
        '{"space": {"dim": 2, "field": "complex"}, "sequences": {"xs": [[[0.0, 1.0], 1.0]]}}',
        "$.sequences.xs[0][1]: complex scalars are encoded as [re, im]",
    ),
    (
        '{"space": {"dim": 1}, "enclosures": {"x_lo": [0.0], "x_hi": [1.0, 2.0]}}',
        "$.enclosures.x_hi: expected 1 coordinates, got 2",
    ),
    (
        '{"space": {"dim": 1}, "enclosures": {"x_lo": 0.0, "x_hi": [1.0]}}',
        "$.enclosures.x_lo: expected an array of coordinates",
    ),
    ('{"space": {"dim": 1}, "enclosures": {"x_lo": ["0"], "x_hi": [1.0]}}', "$.enclosures.x_lo[0]: expected a number"),
    ('{"space": {"dim": 1}, "enclosures": {"a": NaN, "A": 1.0}}', "$.enclosures.a: scalar must be finite"),
    ('{"space": {"dim": 1}, "enclosures": {"a": 0.0, "A": [1.0]}}', "$.enclosures.A: expected a number"),
    (
        '{"space": {"dim": 1, "field": "complex"}, "enclosures": {"a": 0.0, "A": [1.0, 0.0]}}',
        "$.enclosures.a: complex scalars are encoded as [re, im]",
    ),
    ('{"space": {"dim": 1}, "weights": []}', "$.weights: expected a nonempty array of numbers"),
    ('{"space": {"dim": 1}, "weights": [0.5, true]}', "$.weights[1]: expected a number"),
    ('{"space": {"dim": 1}, "weights": [0.5, NaN]}', "$.weights: weights must be finite"),
    ('{"space": {"dim": 2, "metric": [1.0]}}', "$.space.metric: expected an array of 2 positive weights"),
    ('{"space": {"dim": 2, "metric": [1.0, -1.0]}}', "$.space.metric[1]: metric weights must be positive finite numbers"),
    ('{"space": {"dim": 2, "metric": [NaN, "x"]}}', "$.space.metric[0]: metric weights must be positive finite numbers"),
    ('{"space": {"dim": 2, "metric": [1.0, "x"]}}', "$.space.metric[1]: metric weights must be positive finite numbers"),
    (
        '{"space": {"dim": 1}, "weights": [0.5, 0.5], "sequences": {"xs": [[0.0], [1.0]], "zs": [[0.0]]}}',
        "$.sequences.zs: length 1 does not match 2 weights",
    ),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_malformed_document_names_first_bad_entry(text, message):
    with pytest.raises(InstanceFormatError) as err:
        loads(text)
    assert str(err.value) == message


def test_signed_zeros_survive_the_echo():
    text = (
        '{"space": {"dim": 1, "field": "complex"}, "weights": [0.5, 0.5], '
        '"sequences": {"xs": [[[-0.0, 0.0]], [[1.0, -0.0]]], "alphas": [[0.0, -0.0], [-0.0, -0.0]]}}'
    )
    inst = loads(text)
    echo = instance_document(inst.space, weights=inst.weights, xs=inst.xs, alphas=inst.alphas)
    assert [math.copysign(1.0, v) for row in echo["sequences"]["xs"] for pair in row for v in pair] == [-1, 1, 1, -1]
    assert [math.copysign(1.0, v) for pair in echo["sequences"]["alphas"] for v in pair] == [1, -1, -1, -1]
    assert '"alphas": [\n      [0, -0],\n      [-0, -0]\n    ]' in dumps(echo)


# -- fuzzing: every document either parses or is rejected with a JSON path ----

JSON_JUNK = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 3, 10**400, -(10**400), 2**1024, 1e308, math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "1.5", "inf", [], [1.0], [1.0, 2.0], [[0.0, 1.0]], {}, {"dim": 1}]).map(copy.deepcopy),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def documents(draw):
    """A valid instance document, then a few random edits anywhere in its tree."""
    dim, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cplx = draw(st.booleans())
    number = st.floats(-4, 4)

    def scalar():
        return [draw(number), draw(number)] if cplx else draw(number)

    def vector():
        return [scalar() for _ in range(dim)]

    doc = {
        "space": {"dim": dim, "field": "complex" if cplx else "real", "metric": [1.0 + k for k in range(dim)]},
        "weights": [1.0 / n] * n,
        "sequences": {"xs": [vector() for _ in range(n)], "alphas": [scalar() for _ in range(n)]},
        "enclosures": {"x_lo": vector(), "x_hi": vector(), "a": scalar(), "A": scalar()},
        "holder_p": draw(st.sampled_from([2.0, "inf", 3])),
    }
    for _ in range(draw(st.integers(1, 3))):
        slots, stack = [], [doc]
        while stack:
            node = stack.pop()
            for key in list(node) if isinstance(node, dict) else range(len(node)):
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    stack.append(node[key])
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "replace", "delete", "wrap", "append"]))
        if action == "append" and isinstance(node[key], list):
            node[key].append(draw(JSON_JUNK))
        elif action == "delete":
            del node[key]
        elif action == "wrap":
            node[key] = [node[key]]
        else:
            node[key] = draw(JSON_JUNK)
    return doc


@settings(derandomize=True, max_examples=250, deadline=None)
@given(documents())
def test_fuzzed_documents_parse_or_name_a_path(doc):
    try:
        inst = parse_document(doc)
    except InstanceFormatError as exc:
        assert str(exc).startswith("$"), str(exc)
    else:
        assert isinstance(inst, Instance)
