import json
import math

import numpy as np
import pytest

from conftest import random_space, random_vector
from grussbounds import Enclosure, InstanceFormatError, ProbabilityVector, Space
from grussbounds.instancefile import (
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
