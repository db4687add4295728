"""Instance documents: the structured input/output format of the CLI.

A document is JSON with the layout

    {
      "space":      {"dim": 2, "field": "real", "metric": [..]?},
      "weights":    [..],
      "sequences":  {"xs": [[..],..], "ys"?, "alphas"?, "zs"?},
      "enclosures": {"x_lo"/"x_hi"?, "y_lo"/"y_hi"?, "a"/"A"?, "m"/"M"?,
                     "z_lo"/"z_hi"?},
      "oracle":     "squared_norm"?,
      "holder_p":   2.0 | "inf"?
    }

On complex spaces every scalar (vector coordinates, alphas, a/A) is encoded
as a two-element [re, im] array; on real spaces scalars are plain numbers.
Weights are always plain numbers. Serialization writes every float with 17
significant digits, which round-trips IEEE doubles losslessly.

Reports produced by the CLI echo the instance and add a "results" block;
re-ingesting a report as an instance therefore works (the block is ignored).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import Enclosure
from .errors import InstanceFormatError
from .space import COMPLEX, REAL, ProbabilityVector, Space

_SPACE_KEYS = {"dim", "field", "metric"}
_SEQUENCE_KEYS = {"xs", "ys", "alphas", "zs"}
_ENCLOSURE_KEYS = {"x_lo", "x_hi", "y_lo", "y_hi", "a", "A", "m", "M", "z_lo", "z_hi"}
_TOP_KEYS = {"space", "weights", "sequences", "enclosures", "oracle", "holder_p", "results"}

_ENCLOSURE_PAIRS = {"x": ("x_lo", "x_hi"), "y": ("y_lo", "y_hi"), "grad": ("m", "M"), "z": ("z_lo", "z_hi")}


@dataclass(frozen=True, eq=False)
class Instance:
    """Parsed instance: validated domain objects plus the raw document."""

    space: Space
    weights: ProbabilityVector | None
    xs: np.ndarray | None
    ys: np.ndarray | None
    zs: np.ndarray | None
    alphas: np.ndarray | None
    enclosures: dict = field(default_factory=dict)  # keys "x", "y", "grad", "z"
    disc: tuple | None = None  # (a, A)
    oracle: str | None = None
    holder_p: float | None = None
    raw: dict = field(default_factory=dict)


def _fail(path: str, message: str) -> None:
    raise InstanceFormatError(f"{path}: {message}")


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        _fail(path, f"expected an object, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set, path: str) -> None:
    for key in node:
        if key not in allowed:
            _fail(f"{path}.{key}", f"unknown key (allowed: {', '.join(sorted(allowed))})")


def _parse_scalar(space: Space, node, path: str) -> float | complex:
    if space.is_complex:
        if not (isinstance(node, list) and len(node) == 2):
            _fail(path, "complex scalars are encoded as [re, im]")
        re, im = node
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            _fail(path, "[re, im] entries must be numbers")
        value = complex(float(re), float(im))
    else:
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            _fail(path, "expected a number")
        value = float(node)
    if not (math.isfinite(complex(value).real) and math.isfinite(complex(value).imag)):
        _fail(path, "scalar must be finite")
    return value


def _parse_vector(space: Space, node, path: str) -> np.ndarray:
    if not isinstance(node, list):
        _fail(path, "expected an array of coordinates")
    if len(node) != space.dim:
        _fail(path, f"expected {space.dim} coordinates, got {len(node)}")
    coords = [_parse_scalar(space, c, f"{path}[{k}]") for k, c in enumerate(node)]
    return space.vector(coords)


def _parse_vectors(space: Space, node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        _fail(path, "expected a nonempty array of vectors")
    rows = [_parse_vector(space, row, f"{path}[{k}]") for k, row in enumerate(node)]
    return space.matrix(rows)


def _parse_space(node, path: str) -> Space:
    node = _expect_mapping(node, path)
    _reject_unknown(node, _SPACE_KEYS, path)
    if "dim" not in node:
        _fail(f"{path}.dim", "missing")
    dim = node["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        _fail(f"{path}.dim", f"expected a positive integer, got {dim!r}")
    fld = node.get("field", REAL)
    if fld not in (REAL, COMPLEX):
        _fail(f"{path}.field", f"expected '{REAL}' or '{COMPLEX}', got {fld!r}")
    metric = None
    if "metric" in node:
        raw = node["metric"]
        if not isinstance(raw, list) or len(raw) != dim:
            _fail(f"{path}.metric", f"expected an array of {dim} positive weights")
        for k, v in enumerate(raw):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 < v < math.inf:
                _fail(f"{path}.metric[{k}]", "metric weights must be positive finite numbers")
        metric = np.array(raw, dtype=np.float64)
    return Space(dim, fld, metric)


def parse_document(doc) -> Instance:
    """Validate a decoded JSON document and build the domain objects."""
    doc = _expect_mapping(doc, "$")
    _reject_unknown(doc, _TOP_KEYS, "$")
    if "space" not in doc:
        _fail("$.space", "missing")
    space = _parse_space(doc["space"], "$.space")

    weights = None
    if "weights" in doc:
        node = doc["weights"]
        if not isinstance(node, list) or not node:
            _fail("$.weights", "expected a nonempty array of numbers")
        for k, v in enumerate(node):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                _fail(f"$.weights[{k}]", "expected a number")
        try:
            weights = ProbabilityVector(np.array(node, dtype=np.float64))
        except ValueError as exc:
            _fail("$.weights", str(exc))

    xs = ys = zs = alphas = None
    if "sequences" in doc:
        seqs = _expect_mapping(doc["sequences"], "$.sequences")
        _reject_unknown(seqs, _SEQUENCE_KEYS, "$.sequences")
        if "xs" in seqs:
            xs = _parse_vectors(space, seqs["xs"], "$.sequences.xs")
        if "ys" in seqs:
            ys = _parse_vectors(space, seqs["ys"], "$.sequences.ys")
        if "zs" in seqs:
            zs = _parse_vectors(space, seqs["zs"], "$.sequences.zs")
        if "alphas" in seqs:
            node = seqs["alphas"]
            if not isinstance(node, list) or not node:
                _fail("$.sequences.alphas", "expected a nonempty array of scalars")
            alphas = np.array(
                [_parse_scalar(space, v, f"$.sequences.alphas[{k}]") for k, v in enumerate(node)],
                dtype=space.dtype,
            )

    lengths = {
        name: arr.shape[0] if hasattr(arr, "shape") else len(arr)
        for name, arr in (("xs", xs), ("ys", ys), ("zs", zs), ("alphas", alphas))
        if arr is not None
    }
    if weights is not None and lengths:
        for name, ln in lengths.items():
            if ln != len(weights):
                _fail(f"$.sequences.{name}", f"length {ln} does not match {len(weights)} weights")

    enclosures: dict = {}
    disc = None
    if "enclosures" in doc:
        encls = _expect_mapping(doc["enclosures"], "$.enclosures")
        _reject_unknown(encls, _ENCLOSURE_KEYS, "$.enclosures")
        for name, (lo_key, hi_key) in _ENCLOSURE_PAIRS.items():
            if lo_key in encls or hi_key in encls:
                if lo_key not in encls or hi_key not in encls:
                    _fail(f"$.enclosures.{lo_key}", f"{lo_key} and {hi_key} must come together")
                lo = _parse_vector(space, encls[lo_key], f"$.enclosures.{lo_key}")
                hi = _parse_vector(space, encls[hi_key], f"$.enclosures.{hi_key}")
                try:
                    enclosures[name] = Enclosure(space, lo, hi)
                except ValueError as exc:
                    _fail(f"$.enclosures.{lo_key}", str(exc))
        if "a" in encls or "A" in encls:
            if "a" not in encls or "A" not in encls:
                _fail("$.enclosures.a", "a and A must come together")
            a = _parse_scalar(space, encls["a"], "$.enclosures.a")
            A = _parse_scalar(space, encls["A"], "$.enclosures.A")
            if complex(a) == complex(A):
                _fail("$.enclosures.a", "degenerate disc: a == A")
            disc = (a, A)

    oracle = None
    if "oracle" in doc:
        if not isinstance(doc["oracle"], str):
            _fail("$.oracle", "expected a string")
        oracle = doc["oracle"]

    holder_p = None
    if "holder_p" in doc:
        node = doc["holder_p"]
        if isinstance(node, str):
            if node not in ("inf", "Infinity"):
                _fail("$.holder_p", f"expected a number > 1 or 'inf', got {node!r}")
            holder_p = math.inf
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            holder_p = float(node)
        else:
            _fail("$.holder_p", "expected a number > 1 or 'inf'")
        if not holder_p > 1.0:
            _fail("$.holder_p", f"expected a value > 1, got {holder_p!r}")

    return Instance(
        space=space,
        weights=weights,
        xs=xs,
        ys=ys,
        zs=zs,
        alphas=alphas,
        enclosures=enclosures,
        disc=disc,
        oracle=oracle,
        holder_p=holder_p,
        raw=doc,
    )


def loads(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InstanceFormatError("$: invalid JSON: arrays or objects nested too deeply") from None
    return parse_document(doc)


def _read(path) -> str:
    """The UTF-8 text of ``path``; an unreadable or undecodable file is a format error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from None


def load(path) -> Instance:
    return loads(_read(path))


def _encode_scalar(space: Space, value):
    z = complex(value)
    if space.is_complex:
        return [z.real, z.imag]
    if z.imag != 0.0:
        raise InstanceFormatError("cannot encode a complex scalar in a real-space document")
    return z.real


def _encode_vector(space: Space, v):
    return [_encode_scalar(space, c) for c in np.asarray(v)]


def _encode_vectors(space: Space, rows):
    return [_encode_vector(space, row) for row in np.asarray(rows)]


def instance_document(
    space: Space,
    weights=None,
    xs=None,
    ys=None,
    zs=None,
    alphas=None,
    enclosures: dict | None = None,
    disc: tuple | None = None,
    oracle: str | None = None,
    holder_p: float | None = None,
) -> dict:
    """Build a serializable document from domain objects."""
    doc: dict = {"space": {"dim": space.dim, "field": space.field}}
    if space.metric is not None:
        doc["space"]["metric"] = [float(v) for v in space.metric]
    if weights is not None:
        w = weights.weights if isinstance(weights, ProbabilityVector) else np.asarray(weights)
        doc["weights"] = [float(v) for v in w]
    seqs = {}
    if xs is not None:
        seqs["xs"] = _encode_vectors(space, xs)
    if ys is not None:
        seqs["ys"] = _encode_vectors(space, ys)
    if alphas is not None:
        seqs["alphas"] = [_encode_scalar(space, v) for v in np.asarray(alphas)]
    if zs is not None:
        seqs["zs"] = _encode_vectors(space, zs)
    if seqs:
        doc["sequences"] = seqs
    encl_node = {}
    for name, encl in (enclosures or {}).items():
        lo_key, hi_key = _ENCLOSURE_PAIRS[name]
        encl_node[lo_key] = _encode_vector(space, encl.lo)
        encl_node[hi_key] = _encode_vector(space, encl.hi)
    if disc is not None:
        encl_node["a"] = _encode_scalar(space, disc[0])
        encl_node["A"] = _encode_scalar(space, disc[1])
    if encl_node:
        doc["enclosures"] = encl_node
    if oracle is not None:
        doc["oracle"] = oracle
    if holder_p is not None:
        doc["holder_p"] = "inf" if math.isinf(holder_p) else float(holder_p)
    return doc


def _write_json(node, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(node.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _write_json(value, out, indent + 1)
            out.append(",\n" if i + 1 < len(node) else "\n")
        out.append(pad + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        simple = all(isinstance(v, (int, float, str, bool)) or v is None for v in node)
        if simple:
            out.append("[" + ", ".join(_atom(v) for v in node) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(node):
            out.append(pad + "  ")
            _write_json(value, out, indent + 1)
            out.append(",\n" if i + 1 < len(node) else "\n")
        out.append(pad + "]")
    else:
        out.append(_atom(node))


def _atom(node) -> str:
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, (int, np.integer)):
        return str(int(node))
    if isinstance(node, (float, np.floating)):
        value = float(node)
        if not math.isfinite(value):
            raise InstanceFormatError("cannot serialize a non-finite number")
        return format(value, ".17g")
    if isinstance(node, str):
        return json.dumps(node)
    raise InstanceFormatError(f"cannot serialize {type(node).__name__}")


def dumps(doc: dict) -> str:
    """Serialize a document with 17-significant-digit floats (lossless round-trip)."""
    out: list = []
    _write_json(doc, out, 0)
    out.append("\n")
    return "".join(out)


def dump(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
