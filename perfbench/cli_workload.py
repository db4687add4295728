"""Workload ``cli``: the end-to-end user path through ``python -m grussbounds.cli``.

Side ops run every bundled instance with the subcommands its sequences
allow (the invalid files must exit 2, ``exterior_point.json`` must exit 1)
and one short sharpness search. Main ops run generated files with no
enclosures, so every command needs ``--fit``. Process start-up and JSON
parse/validation set the time here. Mixing ``--json`` (written through
``instancefile.dumps``) with plain output means a parser gain that costs
serialization shows up.

Children are spawned one at a time through the lean launcher, so each
reports its own peak RSS.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import grussbounds as gb
from grussbounds import instancefile

from harness import HostSpeed, close_rel, import_seconds, latency_summary, op_failed, self_rss_mb, tail_level
from probe import Case, random_case, run_probe

REAL_ROWS = 5_000
COMPLEX_ROWS = 2_500
DIM = 3
MAIN_COMMANDS = (
    (("check", "--fit", "--json"), None),
    (("bound", "--which", "2.7", "--fit", "--json"), "2.7"),
    (("bound", "--which", "2.11", "--fit"), "2.11"),
    (("bound", "--which", "R2.7", "--fit"), "R2.7"),
    (("jensen", "--json"), None),
)
MIN_CYCLES = 4
MAIN_LEVEL = tail_level(MIN_CYCLES * (2 * len(MAIN_COMMANDS) - 1))
SHARP_ARGS = ("--target", "thm23_first", "--n", "2", "--budget", "200")
GRADIENT_CHECK_H = 1e-5
#: Host-speed reference, run before each command: a bare interpreter
#: importing numpy and json, the start-up every command pays; its typical
#: time on the reference machine.
HOST_REF_ARGS = ("-c", "import json, numpy")
HOST_REF_S = 0.170
ALIASES = {"1.2": "2.11", "1.4": "2.7", "1.5": "2.8", "1.7": "1.6", "1.9": "1.8"}


# -- inputs -----------------------------------------------------------------


def _scalar(v, is_complex):
    return [float(v.real), float(v.imag)] if is_complex else float(v)


def write_document(case: Case, path: Path) -> None:
    """The benchmark's own encoder: plain json, shortest round-trip floats."""
    cplx = case.space.is_complex

    def rows(a):
        return [[_scalar(v, cplx) for v in row] for row in a]

    doc = {
        "space": {"dim": case.space.dim, "field": case.space.field},
        "weights": case.w.tolist(),
        "sequences": {
            "xs": rows(case.xs),
            "ys": rows(case.ys),
            "alphas": [_scalar(v, cplx) for v in case.alphas],
        },
        "oracle": "squared_norm",
    }
    if case.zs is not None:
        doc["sequences"]["zs"] = rows(case.zs)
    path.write_text(json.dumps(doc), encoding="utf-8")


# -- library values on the same files -----------------------------------------


def fit_disc(alphas) -> tuple:
    encl = gb.fit_enclosure(gb.Space(1, "complex"), np.asarray(alphas, dtype=np.complex128)[:, None])
    return complex(encl.lo[0]), complex(encl.hi[0])


def library_chain(inst, which: str, fit: bool):
    """The chain ``bound --which`` should report, from the public builders."""
    tag = ALIASES.get(which, which)
    sp, p = inst.space, inst.weights

    def encl(name, seq):
        return inst.enclosures[name] if name in inst.enclosures else gb.fit_enclosure(sp, seq)

    disc = inst.disc if inst.disc is not None or not fit else fit_disc(inst.alphas)
    hp = inst.holder_p if inst.holder_p is not None else 2.0
    if tag in ("2.3", "2.7", "1.6"):
        ws = gb.WeightedSequence(sp, p, xs=inst.xs, ys=inst.ys)
        if tag == "2.3":
            return gb.bound_chebyshev(encl("x", ws.xs), ws)
        if tag == "2.7":
            return gb.bound_chebyshev_gruss(encl("x", ws.xs), encl("y", ws.ys), ws)
        return gb.bound_forward_difference(ws, holder_p=hp)
    if tag == "2.8":
        return gb.bound_variance(encl("x", inst.xs), p, inst.xs)
    if tag == "1.8":
        return gb.bound_forward_difference_self(sp, p, inst.xs, holder_p=hp)
    if tag == "R2.7":
        return gb.bound_complex_sequence(disc[0], disc[1], p, inst.alphas)
    ws = gb.WeightedSequence(sp, p, xs=inst.xs, alphas=inst.alphas)
    return gb.bound_scalar_weighted(encl("x", ws.xs), ws, disc=disc if tag == "2.11" else None)


def library_check(inst) -> list:
    """min slacks of the conditions ``check --fit`` reports, in its order."""
    out = []
    for name, seq in (("x", inst.xs), ("y", inst.ys), ("z", inst.zs)):
        if seq is None:
            continue
        encl = inst.enclosures[name] if name in inst.enclosures else gb.fit_enclosure(inst.space, seq)
        out.append(gb.check_ball(encl, seq).min_slack())
        out.append(gb.check_box(encl, seq).min_slack())
    if inst.alphas is not None:
        a, A = inst.disc if inst.disc is not None else fit_disc(inst.alphas)
        out.append(gb.check_scalar_disc(a, A, inst.alphas).min_slack())
    return out


def library_jensen(inst, oracle_name: str) -> dict:
    oracle = gb.get_oracle(oracle_name, inst.space)
    err = gb.gradient_check(inst.space, oracle, inst.zs, h=GRADIENT_CHECK_H)
    rep = gb.reverse_jensen(
        inst.space, oracle, inst.weights.weights, inst.zs,
        grad_encl=inst.enclosures.get("grad"), z_encl=inst.enclosures.get("z"),
    )
    return {"gradient_check_error": err, "gap": rep.gap, "pairing_gap": rep.pairing_gap, "links": [l.value for l in rep.chain.links]}


def _same(a: float, b: float) -> bool:
    return close_rel(float(a), float(b), 0.0)


def verifier(kind: str, ref):
    """A function of the child's stdout that says whether it matches ``ref``."""
    if kind == "plain":
        return lambda out: True
    if kind == "bound":
        values = ref.values()

        def check_bound(out):
            res = json.loads(out)["results"]
            got = [res["functional"]["value"]] + [l["value"] for l in res["links"]]
            return res["holds"] and len(got) == len(values) and all(map(_same, got, values))

        return check_bound
    if kind == "check":

        def check_check(out):
            res = json.loads(out)["results"]
            got = [c["min_slack"] for c in res["conditions"]]
            return res["holds"] and len(got) == len(ref) and all(map(_same, got, ref))

        return check_check
    if kind == "jensen":

        def check_jensen(out):
            res = json.loads(out)["results"]
            links = [l["value"] for l in res["chain"]["links"]]
            return (res["holds"] and _same(res["gap"], ref["gap"]) and _same(res["pairing_gap"], ref["pairing_gap"])
                    and _same(res["gradient_check_error"], ref["gradient_check_error"])
                    and len(links) == len(ref["links"]) and all(map(_same, links, ref["links"])))

        return check_jensen

    def check_sharpness(out):
        res = json.loads(out)["results"]
        return res["achieved_ratio"] <= 1.0 + 1e-9 and res["achieved_ratio"] == ref

    return check_sharpness


def bundled_commands(root: Path, seed: int) -> list:
    """(argv tail, expected exit code, stdout verifier) for the bundled instances."""
    inst_dir = root / "instances"
    cmds = []

    def add(args, rc, kind="plain", ref=None):
        cmds.append((["-m", "grussbounds.cli", *args], rc, verifier(kind, ref)))

    two = str(inst_dir / "two_point.json")
    two_inst = instancefile.load(two)
    add(["check", two, "--json"], 0, "check", library_check(two_inst))
    for tag in ("2.3", "2.7", "2.8", "2.9", "2.11", "R2.7", "1.6", "1.7", "1.8", "1.9"):
        add(["bound", two, "--which", tag, "--json"], 0, "bound", library_chain(two_inst, tag, False))
    add(["jensen", two, "--json"], 0, "jensen", library_jensen(two_inst, "squared_norm"))

    cdisc = str(inst_dir / "complex_disc.json")
    add(["check", cdisc], 0)
    for tag in ("2.8", "2.9", "2.11", "R2.7", "1.8"):
        add(["bound", cdisc, "--which", tag], 0)

    ext = str(inst_dir / "exterior_point.json")
    add(["check", ext], 1)
    add(["bound", ext, "--which", "2.8"], 1)
    add(["bound", ext, "--which", "1.8"], 0)

    fd = str(inst_dir / "forward_difference.json")
    add(["check", fd, "--fit"], 0)
    add(["bound", fd, "--which", "1.6", "--holder-p", "inf"], 0)
    for tag in ("1.7", "1.8", "1.9"):
        add(["bound", fd, "--which", tag], 0)

    jimp = str(inst_dir / "jensen_improvement.json")
    add(["jensen", jimp], 0)
    add(["jensen", jimp, "--oracle", "log_sum_exp", "--json"], 0, "jensen", library_jensen(instancefile.load(jimp), "log_sum_exp"))

    for bad in sorted((inst_dir / "invalid").glob("*.json")):
        add(["check", str(bad)], 2)

    sseed = str(seed % 100_000)
    add(["sharpness", *SHARP_ARGS, "--seed", sseed, "--json"], 0, "sharpness",
        gb.search("thm23_first", 2, 1, 200, int(sseed)).achieved_ratio)
    return cmds


def generated_commands(path: Path, inst) -> list:
    """Main commands on one generated file. ``jensen`` on a complex file is
    only the exit-2 path, so it is returned separately, as a side command."""
    cmds, side = [], []
    for args, tag in MAIN_COMMANDS:
        argv = ["-m", "grussbounds.cli", args[0], str(path), *args[1:]]
        if args[0] == "jensen":
            if inst.space.is_complex:
                side.append((argv, 2, verifier("plain", None)))
            else:
                cmds.append((argv, 0, verifier("jensen", library_jensen(inst, "squared_norm"))))
        elif args[0] == "check":
            cmds.append((argv, 0, verifier("check", library_check(inst))))
        else:
            kind = "bound" if "--json" in args else "plain"
            cmds.append((argv, 0, verifier(kind, library_chain(inst, tag, True))))
    return cmds, side


# -- run ----------------------------------------------------------------------


def run(ctx) -> dict:
    tr, launcher, seconds, root = ctx.tracer, ctx.launcher, ctx.seconds, ctx.root
    rng = np.random.default_rng([ctx.seed, 3])
    cases = [random_case(rng, gb.Space(DIM), REAL_ROWS), random_case(rng, gb.Space(DIM, "complex"), COMPLEX_ROWS)]
    paths = []
    for k, case in enumerate(cases):
        paths.append(ctx.workdir / f"generated_{k}.json")
        write_document(case, paths[-1])
    setup_raw, setup = import_seconds(launcher, "grussbounds.cli")

    side_cmds = bundled_commands(root, ctx.seed)
    main_cmds = []
    for case, path in zip(cases, paths):
        cmds, error_path = generated_commands(path, instancefile.load(path))
        main_cmds += [(argv, rc, check, case.n) for argv, rc, check in cmds]
        side_cmds += error_path

    host = HostSpeed(lambda: launcher.python(*HOST_REF_ARGS)["wall_s"], HOST_REF_S)
    harness_mb = self_rss_mb()
    trivial_mb = launcher.python("-c", "pass")["maxrss_kb"] / 1024.0
    rss_ok = trivial_mb < 0.5 * harness_mb

    attempted = failed = 0
    peak_kb = 0

    def spawn(argv, rc, check) -> float | None:
        nonlocal attempted, failed, peak_kb
        attempted += 1
        tr.op += 1
        host.tick()
        reply = tr.call("cli.command", launcher.python, *argv)
        peak_kb = max(peak_kb, reply["maxrss_kb"])
        try:
            ok = reply["rc"] == rc and check(reply["stdout"])
        except Exception as exc:  # unparsable or incomplete output is a failed op
            op_failed(" ".join(argv[2:4]), exc)
            ok = False
        if not ok:
            failed += 1
            return None
        return reply["wall_s"]

    # the bundled commands are spread over the first MIN_CYCLES cycles so that
    # both kinds of command see the same stretch of machine noise
    chunks = [side_cmds[k::MIN_CYCLES] for k in range(MIN_CYCLES)]
    spans_before = len(tr.spans)
    main_lat, side_lat, rows = [], [], 0
    main_ref, side_ref = [], []  # the same latencies at the reference host speed
    cycles = 0
    t_start = time.perf_counter()
    while cycles < MIN_CYCLES or time.perf_counter() - t_start < seconds:
        for argv, rc, check, n in main_cmds:
            t = spawn(argv, rc, check)
            if t is not None:
                main_lat.append(t)
                main_ref.append(host.scale(t))
                rows += n
        for cmd in chunks[cycles] if cycles < MIN_CYCLES else ():
            t = spawn(*cmd)
            if t is not None:
                side_lat.append(t)
                side_ref.append(host.scale(t))
        cycles += 1
    loop_spans = len(tr.spans) - spans_before

    if ctx.trace:
        fd_inst = instancefile.load(root / "instances" / "forward_difference.json")
        n = fd_inst.xs.shape[0]
        fd_case = Case(fd_inst.space, fd_inst.weights.weights, fd_inst.xs, fd_inst.ys, np.zeros(n))
        extra = run_probe(tr, launcher, cases, fd_case, cases[0], cases, builders=True)
    else:
        extra = {}

    main = latency_summary(main_lat, MAIN_LEVEL)
    side = latency_summary(side_lat, tail_level(len(side_cmds)))
    main_at_ref = latency_summary(main_ref, MAIN_LEVEL)
    return {
        "attempted": attempted,
        "failed": failed,
        "self_checks": {"child_rss_below_harness": rss_ok},
        "loop_spans": loop_spans,
        "loop_seconds": sum(main_lat) + sum(side_lat),
        "extra": extra,
        "array_bytes": sum(c.w.nbytes + c.xs.nbytes + c.ys.nbytes + c.alphas.nbytes for c in cases),
        "metrics": {
            "setup_s": setup,
            "peak_rss_mb": peak_kb / 1024.0,
            "op_ms_p50": main_at_ref["p50"] * 1e3,
            "op_ms_tail": main_at_ref["tail"] * 1e3,
            "ops_per_s": len(main_ref) / sum(main_ref),
            "mrows_per_s": rows / sum(main_ref) / 1e6,
            "side_batch_s": sum(side_ref),
        },
        "report": [
            ("cli_small_ms_p50", side["p50"] * 1e3, "ms", f"{len(side_cmds)} bundled and error-path commands"),
            ("cli_small_ms_tail", side["tail"] * 1e3, "ms", f"p{side['level'] * 100:g} of n={side['n']}"),
            ("cli_large_s_p50", main["p50"], "s", f"files of {REAL_ROWS} real / {COMPLEX_ROWS} complex rows"),
            ("cli_large_s_tail", main["tail"], "s", f"p{main['level'] * 100:g} of n={main['n']}"),
            ("cli_side_batch_s", sum(side_lat), "s", "all side commands, raw"),
            ("cli_setup_s", setup_raw, "s", "import of grussbounds.cli, raw"),
            host.report(),
            ("rss_self_check_mb", trivial_mb, "MB", f"trivial child vs harness {harness_mb:.1f} MB: {'ok' if rss_ok else 'FAILED'}"),
        ],
    }
