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
Weights are always plain numbers. One decoder reads every such array: it
checks types and lengths a list at a time, converts once with numpy (complex
values as a view of the [re, im] pairs, so signed zeros survive) and names the
first bad entry by its JSON path. The encoder writes a rectangular array of
floats, at any depth, through one ``%.17g`` template built for its shape.
Serialization writes every float with 17 significant digits, which
round-trips IEEE doubles losslessly.

Reports produced by the CLI echo the instance and add a "results" block;
re-ingesting a report as an instance therefore works (the block is ignored).
A file over ``MAX_INPUT_BYTES`` is refused before it is read.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .conditions import Enclosure
from .errors import InstanceFormatError
from .space import COMPLEX, REAL, ProbabilityVector, Space

_SPACE_KEYS = {"dim", "field", "metric"}
_SEQUENCE_KEYS = {"xs", "ys", "alphas", "zs"}
_ENCLOSURE_KEYS = {"x_lo", "x_hi", "y_lo", "y_hi", "a", "A", "m", "M", "z_lo", "z_hi"}
_TOP_KEYS = {"space", "weights", "sequences", "enclosures", "oracle", "holder_p", "results"}

#: The largest input file read, in bytes (512 MiB), checked before its text is read. A CLI run peaks
#: at 4-5 times its input under ``tracemalloc`` (``tests/test_cli_run.py`` holds it to 5), so a run on
#: a file at the cap stays under 2.5 GiB.
MAX_INPUT_BYTES = 2**29

_ENCLOSURE_PAIRS = {"x": ("x_lo", "x_hi"), "y": ("y_lo", "y_hi"), "grad": ("m", "M"), "z": ("z_lo", "z_hi")}


@dataclass(frozen=True, eq=False)
class Instance:
    """Parsed instance: the validated domain objects of a document."""

    space: Space
    weights: ProbabilityVector | None
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None
    zs: np.ndarray | None = None
    alphas: np.ndarray | None = None
    enclosures: dict = field(default_factory=dict)  # keys "x", "y", "grad", "z"
    disc: tuple | None = None  # (a, A)
    oracle: str | None = None
    holder_p: float | None = None


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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _first_bad(items: list, ok, types=frozenset(), size=None) -> int:
    """Index of the first item failing ``ok``, else len(items). Items that all have a type in ``types``
    (and, given ``size``, that length) pass ``ok``: one C-level pass accepts them without a scan."""
    if set(map(type, items)) <= types and (size is None or set(map(len, items)) == {size}):
        return len(items)
    return next((k for k, v in enumerate(items) if not ok(v)), len(items))


def _float(number) -> float:
    """float(number); an integer past the double range reads as +-inf, as 1e400 does."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def _floats(numbers: list) -> np.ndarray:
    try:
        return np.array(numbers, dtype=np.float64)
    except OverflowError:
        return np.array([_float(v) for v in numbers], dtype=np.float64)


def _decode(space: Space, node, path: str, vector: bool, sequence: str | None = None) -> np.ndarray:
    """A read-only array of ``space`` scalars: a vector (``vector``) or a scalar,
    or, with ``sequence`` naming them, a nonempty array of such items.

    Types and lengths are checked a list at a time, numbers converted and checked
    finite once; the first bad entry in document order is reported at its path.
    """
    if sequence is not None and (not isinstance(node, list) or not node):
        _fail(path, f"expected a nonempty array of {sequence}")
    items = node if sequence is not None else [node]
    dim, cplx, width = space.dim, space.is_complex, 2 if space.is_complex else 1
    # rows, pairs and good count the leading entries that pass each check
    rows = _first_bad(items, lambda v: isinstance(v, list) and len(v) == dim, {list}, dim) if vector else len(items)
    scalars = list(chain.from_iterable(items[:rows])) if vector else items
    pairs = _first_bad(scalars, lambda v: isinstance(v, list) and len(v) == 2, {list}, 2) if cplx else len(scalars)
    leaves = list(chain.from_iterable(scalars[:pairs])) if cplx else scalars
    good = min(_first_bad(leaves, _is_number, {int, float}) // width, pairs)
    values = _floats(leaves[: good * width]).reshape(good, width)
    finite = np.isfinite(values).all(axis=1)
    j = good if finite.all() else int(np.argmin(finite))
    at = (lambda k: f"{path}[{k}]") if sequence is not None else (lambda k: path)
    if j < len(scalars):
        where = f"{at(j // dim)}[{j % dim}]" if vector else at(j)
        _fail(where, "scalar must be finite" if j < good else "expected a number" if not cplx
              else "complex scalars are encoded as [re, im]" if j == pairs else "[re, im] entries must be numbers")
    if rows < len(items):
        row = items[rows]
        _fail(at(rows), f"expected {dim} coordinates, got {len(row)}" if isinstance(row, list) else "expected an array of coordinates")
    out = (values.view(np.complex128) if cplx else values).reshape((len(items), dim) if vector else len(items))
    out.flags.writeable = out.base.flags.writeable = False  # read-only throughout: the validators take it uncopied
    return out if sequence is not None else out[0]


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
        k = _first_bad(raw, lambda v: _is_number(v) and 0 < _float(v) < math.inf)
        if k < dim:
            _fail(f"{path}.metric[{k}]", "metric weights must be positive finite numbers")
        metric = _floats(raw)
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
        k = _first_bad(node, _is_number, {int, float})
        if k < len(node):
            _fail(f"$.weights[{k}]", "expected a number")
        try:
            weights = ProbabilityVector(_floats(node))
        except ValueError as exc:
            _fail("$.weights", str(exc))

    found = {}
    if "sequences" in doc:
        seqs = _expect_mapping(doc["sequences"], "$.sequences")
        _reject_unknown(seqs, _SEQUENCE_KEYS, "$.sequences")
        for name in ("xs", "ys", "zs", "alphas"):
            if name in seqs:
                vector = name != "alphas"
                found[name] = _decode(space, seqs[name], f"$.sequences.{name}", vector, "vectors" if vector else "scalars")
    for name, arr in found.items():
        if weights is not None and len(arr) != len(weights):
            _fail(f"$.sequences.{name}", f"length {len(arr)} does not match {len(weights)} weights")

    enclosures: dict = {}
    disc = None
    if "enclosures" in doc:
        encls = _expect_mapping(doc["enclosures"], "$.enclosures")
        _reject_unknown(encls, _ENCLOSURE_KEYS, "$.enclosures")
        for name, (lo_key, hi_key) in _ENCLOSURE_PAIRS.items():
            if lo_key in encls or hi_key in encls:
                if lo_key not in encls or hi_key not in encls:
                    _fail(f"$.enclosures.{lo_key}", f"{lo_key} and {hi_key} must come together")
                lo = _decode(space, encls[lo_key], f"$.enclosures.{lo_key}", True)
                hi = _decode(space, encls[hi_key], f"$.enclosures.{hi_key}", True)
                try:
                    enclosures[name] = Enclosure(space, lo, hi)
                except ValueError as exc:
                    _fail(f"$.enclosures.{lo_key}", str(exc))
        if "a" in encls or "A" in encls:
            if "a" not in encls or "A" not in encls:
                _fail("$.enclosures.a", "a and A must come together")
            a = _decode(space, encls["a"], "$.enclosures.a", False).item()
            A = _decode(space, encls["A"], "$.enclosures.A", False).item()
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
        elif _is_number(node):
            holder_p = _float(node)
        else:
            _fail("$.holder_p", "expected a number > 1 or 'inf'")
        if not holder_p > 1.0:
            _fail("$.holder_p", f"expected a value > 1, got {holder_p!r}")

    return Instance(space, weights, **found, enclosures=enclosures, disc=disc, oracle=oracle, holder_p=holder_p)


def loads(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InstanceFormatError("$: invalid JSON: arrays or objects nested too deeply") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise InstanceFormatError(f"$: invalid JSON: {exc}") from None
    return parse_document(doc)


def _read(path) -> str:
    """The UTF-8 text of ``path``, line endings untranslated (so it encodes to the file's bytes); an
    unreadable or undecodable file, or one over :data:`MAX_INPUT_BYTES`, is a format error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size > MAX_INPUT_BYTES:
                raise InstanceFormatError(f"$: the file is {size} bytes, over the input cap of {MAX_INPUT_BYTES} bytes")
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from None


def load(path) -> Instance:
    return loads(_read(path))


def _encode(space: Space, values):
    """A scalar or array of ``space`` as nested lists, complex scalars as [re, im]."""
    values = np.asarray(values)
    if space.is_complex:
        values = values.astype(np.complex128)
        return np.stack((values.real, values.imag), axis=-1).tolist()
    if np.iscomplexobj(values) and np.any(values.imag != 0.0):
        raise InstanceFormatError("cannot encode a complex scalar in a real-space document")
    return np.real(values).astype(np.float64).tolist()


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
        doc["space"]["metric"] = space.metric.tolist()
    if weights is not None:
        w = weights.weights if isinstance(weights, ProbabilityVector) else weights
        doc["weights"] = np.asarray(w, dtype=np.float64).tolist()
    seqs = {}
    for name, values in (("xs", xs), ("ys", ys), ("alphas", alphas), ("zs", zs)):
        if values is not None:
            seqs[name] = _encode(space, values)
    if seqs:
        doc["sequences"] = seqs
    encl_node = {}
    for name, encl in (enclosures or {}).items():
        lo_key, hi_key = _ENCLOSURE_PAIRS[name]
        encl_node[lo_key] = _encode(space, encl.lo)
        encl_node[hi_key] = _encode(space, encl.hi)
    if disc is not None:
        encl_node["a"] = _encode(space, disc[0])
        encl_node["A"] = _encode(space, disc[1])
    if encl_node:
        doc["enclosures"] = encl_node
    if oracle is not None:
        doc["oracle"] = oracle
    if holder_p is not None:
        doc["holder_p"] = "inf" if math.isinf(holder_p) else float(holder_p)
    return doc


def _atom(node) -> str:
    """JSON text of a number, string, boolean or null."""
    if isinstance(node, float):
        if not math.isfinite(node):
            raise InstanceFormatError("cannot serialize a non-finite number")
        return format(node, ".17g")
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, (int, np.integer)):
        return str(int(node))
    if isinstance(node, np.floating):
        return _atom(float(node))
    if isinstance(node, str):
        return json.dumps(node)
    raise InstanceFormatError(f"cannot serialize {type(node).__name__}")


def _write(node, pad: str, out: list) -> None:
    """Append the JSON text of ``node`` at indentation ``pad`` to ``out``; an array of atoms stays on one line."""
    inner = pad + "  "
    if isinstance(node, dict):
        opening = "{\n"
        for key, value in node.items():
            out.append(f"{opening}{inner}{json.dumps(str(key))}: ")
            _write(value, inner, out)
            opening = ",\n"
        out.append(f"\n{pad}}}" if node else "{}")
    elif isinstance(node, (list, tuple)):
        shape, leaves = [], [node]
        while (kinds := set(map(type, leaves))) == {list} and len(lengths := set(map(len, leaves))) == 1:
            shape.append(lengths.pop())
            leaves = list(chain.from_iterable(leaves))
        if shape and kinds == {float}:  # a rectangular array of floats: one template, built inside out
            if not all(map(math.isfinite, leaves)):
                raise InstanceFormatError("cannot serialize a non-finite number")
            template = "[" + ", ".join(["%.17g"] * shape.pop()) + "]"
            for depth in reversed(range(len(shape))):  # wrap the rows of each outer level, innermost first
                outer = pad + "  " * depth
                template = "[\n" + ",\n".join([outer + "  " + template] * shape[depth]) + "\n" + outer + "]"
            out.append(template % tuple(leaves))
        elif all(isinstance(v, (int, float, str, bool)) or v is None for v in node):
            out.append("[" + ", ".join(map(_atom, node)) + "]")
        else:
            opening = "[\n"
            for value in node:
                out.append(opening + inner)
                _write(value, inner, out)
                opening = ",\n"
            out.append(f"\n{pad}]")
    else:
        out.append(_atom(node))


def text_pieces(doc: dict) -> list:
    """The text of :func:`dumps` as the pieces it joins: each float array is one piece, so a writer
    that takes them in turn never holds the whole document as one string."""
    out: list = []
    _write(doc, "", out)
    out.append("\n")
    return out


def dumps(doc: dict) -> str:
    """Serialize a document with 17-significant-digit floats (lossless round-trip)."""
    return "".join(text_pieces(doc))


def dump(doc: dict, path) -> None:
    """Write ``doc`` to ``path``; an unwritable path is a format error, as in :func:`_read`."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(text_pieces(doc))
    except OSError as exc:
        raise InstanceFormatError(f"cannot write {path}: {exc}") from None


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
