"""What one CLI run loads, holds and leaves behind.

A run imports only the modules its command needs, keeps the cyclic GC off and
restores its state, leaves a fixed amount of cyclic garbage, peaks at a bounded
multiple of its input under ``tracemalloc``, refuses a file over the input cap,
and prints the same parser text as when every subcommand was built eagerly.
"""

import contextlib
import gc
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import grussbounds
from grussbounds import cli, instancefile
from grussbounds.cli import main
from test_cli import package_env

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
PARSER_OUTPUT = Path(__file__).resolve().parent / "data" / "parser_output.json"
#: The ``tracemalloc`` peak of a run on a benchmark-shaped document stays at most this many times its
#: input bytes (the runs below read 4.0-4.5).
MEMORY_FACTOR = 5.0
LAZY_MODULES = ("grussbounds.jensen", "grussbounds.sharpness")


def write_document(path: Path, n: int, dim: int = 3, seed: int = 0) -> Path:
    """A document shaped like the benchmark's generated ones: weights, xs, ys, zs and alphas, no enclosures."""
    rng = np.random.default_rng(seed)
    w = rng.random(n) + 0.1
    doc = {
        "space": {"dim": dim, "field": "real"},
        "weights": (w / w.sum()).tolist(),
        "sequences": {name: rng.standard_normal((n, dim)).tolist() for name in ("xs", "ys", "zs")},
        "oracle": "squared_norm",
    }
    doc["sequences"]["alphas"] = rng.standard_normal(n).tolist()
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def quiet(argv, stdout=None) -> int:
    """``main(argv)`` with its stdout sent to ``stdout`` (default: discarded) and its stderr discarded."""
    with contextlib.redirect_stdout(stdout or io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def loaded_modules(*code: str) -> set:
    """The ``grussbounds`` modules loaded in a fresh interpreter after running ``code``."""
    script = "\n".join([*code, "import sys", "print(*sorted(m for m in sys.modules if m.startswith('grussbounds')))"])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=package_env(), check=True)
    return set(result.stdout.split("\n")[-2].split())


class TestImports:
    def test_package_import_defers_jensen_and_sharpness(self):
        loaded = loaded_modules("import grussbounds")
        assert "grussbounds.bounds" in loaded and not loaded & set(LAZY_MODULES)

    @pytest.mark.parametrize(
        "argv, lazy_loaded",
        [
            (["check", "two_point.json", "--json"], set()),
            (["check", "two_point.json", "--fit"], set()),
            (["bound", "two_point.json", "--which", "2.7", "--json"], set()),
            (["bound", "complex_disc.json", "--which", "R2.7"], set()),
            (["check", "--help"], set()),
            (["jensen", "two_point.json"], {"grussbounds.jensen"}),
            (["sharpness", "--target", "thm23_first", "--budget", "20"], {"grussbounds.sharpness"}),
        ],
    )
    def test_a_command_loads_only_its_own_module(self, argv, lazy_loaded):
        argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
        loaded = loaded_modules(
            "import contextlib, io",
            "from grussbounds.cli import main",
            f"with contextlib.redirect_stdout(io.StringIO()):\n    code = main({argv!r})",
            "assert code == 0, code",
        )
        assert "grussbounds.cli" in loaded and loaded & set(LAZY_MODULES) == lazy_loaded

    def test_every_public_name_resolves(self):
        for name in grussbounds.__all__:
            assert getattr(grussbounds, name) is not None
        assert grussbounds.search is grussbounds.sharpness.search
        assert grussbounds.ORACLE_FACTORIES is grussbounds.jensen.ORACLE_FACTORIES

    def test_every_public_name_is_in_dir(self):
        assert set(grussbounds.__all__) <= set(dir(grussbounds))

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from grussbounds import *", namespace)
        assert set(grussbounds.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            grussbounds.frobnicate  # noqa: B018


EXITS = [
    pytest.param(["check", "two_point.json"], 0, id="exit-0"),
    pytest.param(["check", "exterior_point.json"], 1, id="exit-1"),
    pytest.param(["check", "invalid/bad_json.json"], 2, id="exit-2"),
    pytest.param(["bound", "exterior_point.json", "--which", "2.8", "--json"], 1, id="json-error-1"),
    pytest.param(["check", "invalid/bad_weights.json", "--json"], 2, id="json-error-2"),
    pytest.param(["sharpness", "--target", "bogus"], 2, id="usage-error"),
    pytest.param(["bound", "--help"], 0, id="help"),
]


class TestGcState:
    @pytest.fixture(autouse=True)
    def gc_enabled_afterwards(self):
        yield
        gc.enable()

    @pytest.mark.parametrize("argv, code", EXITS)
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_on_every_exit(self, argv, code, enabled):
        argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
        (gc.enable if enabled else gc.disable)()
        assert quiet(argv) == code
        assert gc.isenabled() is enabled

    def test_state_is_restored_when_a_command_raises(self, monkeypatch):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_check", crash)
        with pytest.raises(RuntimeError, match="boom"):
            quiet(["check", str(INSTANCES / "two_point.json")])
        assert gc.isenabled()

    def test_collector_is_off_during_the_run(self, monkeypatch):
        seen = []
        cmd_check = cli.cmd_check

        def watched(args):
            seen.append(gc.isenabled())
            return cmd_check(args)

        monkeypatch.setattr(cli, "cmd_check", watched)
        assert quiet(["check", str(INSTANCES / "two_point.json")]) == 0
        assert seen == [False] and gc.isenabled()


def cyclic_garbage(argv) -> int:
    """The objects in unreachable cycles that one run of ``argv`` leaves (the collector stays off throughout)."""
    gc.collect()
    gc.disable()
    try:
        quiet(argv)
        return gc.collect()
    finally:
        gc.enable()


class TestCyclicGarbage:
    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--fit", "--json"],
            ["check", "--fit"],
            ["bound", "--which", "2.7", "--fit", "--json"],
            ["bound", "--which", "2.11", "--fit"],
            ["jensen", "--json"],
        ],
    )
    def test_same_garbage_at_any_input_size(self, tmp_path, args):
        counts = []
        for n in (4, 4, 64, 2000):  # the first run of the pair at n = 4 does the command's imports
            path = write_document(tmp_path / f"doc{n}.json", n)
            counts.append(cyclic_garbage([args[0], str(path), *args[1:]]))
        assert counts[1] == counts[2] == counts[3]

    def test_same_garbage_at_any_budget(self):
        counts = [
            cyclic_garbage(["sharpness", "--target", "thm23_first", "--budget", str(budget), "--json"])
            for budget in (20, 20, 200, 1000)
        ]
        assert counts[1] == counts[2] == counts[3]


class TestMemory:
    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--fit", "--json"],
            ["bound", "--which", "2.7", "--fit", "--json"],
            ["jensen", "--json"],
            ["bound", "--which", "2.11", "--fit"],
        ],
    )
    def test_peak_is_bounded_by_the_input_size(self, tmp_path, args):
        small = write_document(tmp_path / "small.json", 4)
        doc = write_document(tmp_path / "doc.json", 5_000)
        with open(tmp_path / "out", "w", encoding="utf-8") as out:
            assert quiet([args[0], str(small), *args[1:]], out) == 0  # the command's imports, outside the count
            tracemalloc.start()
            try:
                assert quiet([args[0], str(doc), *args[1:]], out) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= MEMORY_FACTOR * doc.stat().st_size


class TestInputCap:
    def test_file_at_the_cap_is_read(self, capsys, monkeypatch):
        path = INSTANCES / "two_point.json"
        monkeypatch.setattr(instancefile, "MAX_INPUT_BYTES", path.stat().st_size)
        assert main(["check", str(path)]) == 0

    @pytest.mark.parametrize("as_json", [False, True])
    def test_file_over_the_cap_exits_2(self, capsys, monkeypatch, as_json):
        path = INSTANCES / "two_point.json"
        size = path.stat().st_size
        monkeypatch.setattr(instancefile, "MAX_INPUT_BYTES", size - 1)
        code = main(["check", str(path), *(["--json"] if as_json else [])])
        captured = capsys.readouterr()
        message = f"$: the file is {size} bytes, over the input cap of {size - 1} bytes"
        assert code == 2 and captured.err == f"error: {message}\n"
        if as_json:
            assert json.loads(captured.out) == {
                "error": {"type": "InstanceFormatError", "message": message, "exit_code": 2}
            }
        else:
            assert captured.out == ""


class TestParserOutput:
    """Help and usage text, compared with the recording made when every subcommand was built up front."""

    RECORDED = json.loads(PARSER_OUTPUT.read_text(encoding="utf-8"))

    @staticmethod
    def eager_run(argv):
        """The exit code and output of ``argv`` on a parser with every subcommand's arguments."""
        parser = cli.build_parser([])
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        for name, (_, add_arguments) in cli._COMMANDS.items():
            add_arguments(subparsers[name])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                parser.parse_args(argv)
                code = None
            except SystemExit as exc:
                code = exc.code or 0
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("run", RECORDED["runs"], ids=lambda run: " ".join(run["argv"]) or "no-args")
    def test_matches_the_recording(self, capsys, monkeypatch, run):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [a.format(instances=INSTANCES) for a in run["argv"]]
        code = main(argv)
        captured = capsys.readouterr()
        if self.RECORDED["python"] == "%d.%d" % sys.version_info[:2]:
            assert (code, captured.out, captured.err) == (run["exit_code"], run["stdout"], run["stderr"])
        else:  # argparse words its text differently across versions: compare with the eager parser here
            eager_code, out, err = self.eager_run(argv)
            if eager_code is not None:
                assert (code, captured.out, captured.err) == (eager_code, out, err)
