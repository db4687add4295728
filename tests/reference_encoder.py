"""The document encoder one node at a time: the reference ``instancefile.dumps`` must reproduce.

This is ``instancefile._text`` as it was before whole arrays were written through one shape
template: every row and every [re, im] pair is its own call, and only a flat list of floats
shares one template. ``dumps`` must give the same bytes, or raise the same
``InstanceFormatError``, on every document.
"""

import json
import math

import numpy as np

from grussbounds.errors import InstanceFormatError


def text(node, pad: str = "") -> str:
    """JSON text of ``node`` at indentation ``pad``; an array of atoms stays on one line."""
    if isinstance(node, float):
        if not math.isfinite(node):
            raise InstanceFormatError("cannot serialize a non-finite number")
        return format(node, ".17g")
    inner = pad + "  "
    if isinstance(node, dict):
        items = ",\n".join(f"{inner}{json.dumps(str(key))}: {text(value, inner)}" for key, value in node.items())
        return "{\n" + items + "\n" + pad + "}" if node else "{}"
    if isinstance(node, (list, tuple)):
        if node and set(map(type, node)) == {float}:  # one template for the whole array
            if not all(map(math.isfinite, node)):
                raise InstanceFormatError("cannot serialize a non-finite number")
            return "[" + ", ".join(["%.17g"] * len(node)) % tuple(node) + "]"
        if all(isinstance(v, (int, float, str, bool)) or v is None for v in node):
            return "[" + ", ".join(map(text, node)) + "]"
        return "[\n" + ",\n".join(inner + text(v, inner) for v in node) + "\n" + pad + "]"
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, (int, np.integer)):
        return str(int(node))
    if isinstance(node, np.floating):
        return text(float(node))
    if isinstance(node, str):
        return json.dumps(node)
    raise InstanceFormatError(f"cannot serialize {type(node).__name__}")


def dumps(doc: dict) -> str:
    return text(doc) + "\n"
