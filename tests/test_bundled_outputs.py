"""Golden outputs of the CLI on the bundled instances.

Every bundled instance outside ``instances/invalid/`` runs through each
``bound --which`` tag that ``bound --json --fit`` accepts (exit 0 or 1),
plus ``check --fit --json`` and ``jensen --json`` (with the file's oracle
and with each bundled one); then through the plain-text ``check --fit`` and
``bound --which <tag> --fit``, whose stdout and stderr are recorded as text.
Every ``--json`` run is recorded, a failing one by its error document; a
text run is recorded when it exits 0 or 1. Exit codes, verdicts, error
messages, labels, equation tags and the text between numbers must equal the
recorded ones in
``data/bundled_outputs.json``; every number must agree to rel 1e-12 or
abs 1e-14.

After a reviewed, intended output change, regenerate the file with::

    PYTHONPATH=src python tests/test_bundled_outputs.py
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from grussbounds.bounds import CHAINS
from grussbounds.cli import main
from grussbounds.jensen import ORACLE_FACTORIES

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN = Path(__file__).resolve().parent / "data" / "bundled_outputs.json"
REL, ABS = 1e-12, 1e-14
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run_cli(argv):
    """Exit code and what was printed: the parsed stdout document (None when
    nothing was printed) for ``--json`` runs, else the stdout and stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(INSTANCES / a) if a.endswith(".json") else a for a in argv])
    if "--json" not in argv:
        return code, {"stdout": out.getvalue(), "stderr": err.getvalue()}
    text = out.getvalue()
    return code, {"output": json.loads(text) if text else None}


def candidate_commands():
    paths = sorted(INSTANCES.glob("*.json"))
    for path in paths:
        for tag in CHAINS:
            yield ["bound", path.name, "--which", tag, "--json", "--fit"]
        yield ["check", path.name, "--fit", "--json"]
        yield ["jensen", path.name, "--json"]
        for name in ORACLE_FACTORIES:
            yield ["jensen", path.name, "--json", "--oracle", name]
    for path in paths:
        yield ["check", path.name, "--fit"]
        for tag in CHAINS:
            yield ["bound", path.name, "--which", tag, "--fit"]


def is_recorded(argv, code):
    return "--json" in argv or code != 2


def generate():
    cases = []
    for argv in candidate_commands():
        code, printed = run_cli(argv)
        if is_recorded(argv, code):
            cases.append({"argv": argv, "exit_code": code, **printed})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    return len(cases)


def assert_matches(got, want, where="$"):
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), f"{where}: {got!r} is not a number"
        assert math.isclose(got, want, rel_tol=REL, abs_tol=ABS), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")


def assert_text_matches(got, want, where):
    """The same text between numbers, and numbers that agree as in :func:`assert_matches`."""
    g, w = NUMBER.split(got), NUMBER.split(want)
    assert len(g) == len(w) and g[::2] == w[::2], f"{where}: {got!r} != {want!r}"
    for k, (a, b) in enumerate(zip(g[1::2], w[1::2])):
        assert math.isclose(float(a), float(b), rel_tol=REL, abs_tol=ABS), f"{where}: number {k}: {a} != {b}"


CASES = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else []


def test_golden_file_covers_every_accepted_command():
    recorded = {tuple(case["argv"]) for case in CASES}
    accepted = {tuple(argv) for argv in candidate_commands() if is_recorded(argv, run_cli(argv)[0])}
    assert recorded == accepted


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"][:4]) + ("" if "output" in case else " text"))
def test_bundled_output(case):
    code, printed = run_cli(case["argv"])
    assert code == case["exit_code"]
    if "output" in case:
        assert_matches(printed["output"], case["output"])
    else:
        assert_text_matches(printed["stdout"], case["stdout"], "stdout")
        assert_text_matches(printed["stderr"], case["stderr"], "stderr")


if __name__ == "__main__":
    print(f"wrote {generate()} cases to {GOLDEN}", file=sys.stderr)
