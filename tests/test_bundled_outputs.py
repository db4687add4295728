"""Golden outputs of the CLI on the bundled instances.

Every bundled instance outside ``instances/invalid/`` runs through each
``bound --which`` tag that ``bound --json --fit`` accepts (exit 0 or 1),
plus ``check --fit --json`` and ``jensen --json`` (with the file's oracle
and with each bundled one) where they apply. Exit codes, verdicts, labels
and equation tags must equal the recorded ones in
``data/bundled_outputs.json``; every number must agree to rel 1e-12 or
abs 1e-14.

After a reviewed, intended output change, regenerate the file with::

    PYTHONPATH=src python tests/test_bundled_outputs.py
"""

import contextlib
import io
import json
import math
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


def run_cli(argv):
    """Exit code and parsed stdout document (None when nothing was printed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(INSTANCES / a) if a.endswith(".json") else a for a in argv])
    text = out.getvalue()
    return code, json.loads(text) if text else None


def candidate_commands():
    for path in sorted(INSTANCES.glob("*.json")):
        for tag in CHAINS:
            yield ["bound", path.name, "--which", tag, "--json", "--fit"]
        yield ["check", path.name, "--fit", "--json"]
        yield ["jensen", path.name, "--json"]
        for name in ORACLE_FACTORIES:
            yield ["jensen", path.name, "--json", "--oracle", name]


def generate():
    cases = []
    for argv in candidate_commands():
        code, doc = run_cli(argv)
        if code != 2:
            cases.append({"argv": argv, "exit_code": code, "output": doc})
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


CASES = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else []


def test_golden_file_covers_every_accepted_command():
    recorded = {tuple(case["argv"]) for case in CASES}
    accepted = {tuple(argv) for argv in candidate_commands() if run_cli(argv)[0] != 2}
    assert recorded == accepted


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"][:4]))
def test_bundled_output(case):
    code, doc = run_cli(case["argv"])
    assert code == case["exit_code"]
    assert_matches(doc, case["output"])


if __name__ == "__main__":
    print(f"wrote {generate()} cases to {GOLDEN}", file=sys.stderr)
