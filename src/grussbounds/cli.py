"""Command-line front end.

Subcommands::

    check      verify ball/box/disc conditions of an instance file
    bound      evaluate one bound chain against its functional
    jensen     reverse-Jensen report for a convex oracle
    sharpness  randomized search for near-equality witnesses

Each ``cmd_*`` prints nothing: it returns its exit code, its ``results``
block, a function that builds the document ``--json`` echoes (a text run
never builds it), and its text lines. :func:`main` alone writes. Exit codes:
0 success, 1 hypothesis/inequality concern, 2 usage or parse error;
``_FAILURES`` maps each failure class to its code and stderr prefix.
``--json`` prints one document per run: the instance echo plus a ``results``
block, or on a failure after the arguments parse ``{"error": {"type",
"message", "exit_code"}}``. Human output is a fixed-width table. All numbers
are rendered with 17 significant digits so round-trips are lossless.

A run loads only what its command needs. The parser gives arguments only to
the subcommand being run, and ``cmd_jensen`` and ``cmd_sharpness`` import their
modules themselves, so ``check`` and ``bound`` never load ``jensen`` or
``sharpness``. :func:`main` writes a ``--json`` document as the encoder's
pieces without joining them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys

import numpy as np

from . import instancefile
from .bounds import CHAINS, ENCLOSED_SEQUENCE, BoundChain, _evaluate
from .conditions import _LINE, _report, check_ball, check_box, fit_enclosure
from .errors import (
    ContractViolationError,
    DegenerateInputError,
    EnclosureFitError,
    GradientCheckError,
    GrussBoundsError,
    HypothesisError,
    InstanceFormatError,
    SoundnessError,
)
from .instancefile import Instance, instance_document

GRADIENT_CHECK_H = 1e-5
GRADIENT_CHECK_MAX_ERR = 1e-6


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _holder_arg(text: str) -> float:
    if text in ("inf", "Infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number > 1 or 'inf', got {text!r}") from None
    if not value > 1.0:
        raise argparse.ArgumentTypeError(f"holder exponent must be > 1, got {text}")
    return value


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--fit", action="store_true", help="fit enclosures missing from the file")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.set_defaults(func=cmd_check)


def _bound_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--which", required=True, metavar="TAG", help=f"one of: {', '.join(CHAINS)}")
    p.add_argument("--fit", action="store_true", help="fit enclosures/discs missing from the file")
    p.add_argument("--unchecked", action="store_true", help="evaluate even if the hypothesis fails")
    p.add_argument("--holder-p", type=_holder_arg, default=None, help="Holder exponent (> 1 or 'inf')")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.set_defaults(func=cmd_bound)


def _jensen_arguments(p: argparse.ArgumentParser) -> None:
    from .jensen import ORACLE_FACTORIES

    p.add_argument("file")
    p.add_argument("--oracle", default=None, help=f"override the file's oracle; one of: {', '.join(sorted(ORACLE_FACTORIES))}")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.set_defaults(func=cmd_jensen)


def _sharpness_arguments(p: argparse.ArgumentParser) -> None:
    from .sharpness import TARGETS

    p.add_argument("--target", required=True, choices=sorted(TARGETS))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-witness", metavar="PATH", default=None, help="write the witness instance file")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.set_defaults(func=cmd_sharpness)


#: Each subcommand with its help line and the function that adds its arguments.
_COMMANDS = {
    "check": ("verify ball/box/disc conditions of an instance file", _check_arguments),
    "bound": ("evaluate one bound chain against its functional", _bound_arguments),
    "jensen": ("reverse-Jensen report for a convex oracle", _jensen_arguments),
    "sharpness": ("randomized search for near-equality witnesses", _sharpness_arguments),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of ``argv`` (default ``sys.argv[1:]``). Only the subcommand it runs, its first word
    that is not an option, gets its arguments, so the modules the others would need stay unimported."""
    command = next((word for word in (sys.argv[1:] if argv is None else argv) if not word.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="grussbounds",
        description="Certified bound chains for weighted vector sequences in inner product spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            add_arguments(p)
    return parser


def _load(path: str) -> tuple[Instance, str]:
    text = instancefile._read(path)
    return instancefile.loads(text), instancefile.sha256_hex(text)


@contextlib.contextmanager
def _at(path: str):
    """Report a ``ContractViolationError`` (on parsed input, an overflow) or a ``DegenerateInputError``
    (a fit to identical points) at the JSON ``path``, as the same class."""
    try:
        yield
    except (ContractViolationError, DegenerateInputError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _fit_missing(inst: Instance, name: str, fit: bool, fitted: dict):
    """The file's enclosure ``name`` (the disc too, fitted on the complex line); if absent and ``fit``
    is set, a fit recorded in ``fitted``."""
    found = inst.enclosures.get(name)
    if found is None and fit:
        seq = ENCLOSED_SEQUENCE[name]
        space, rows = (_LINE, inst.alphas[:, None]) if name == "disc" else (inst.space, getattr(inst, seq))
        with _at(f"$.sequences.{seq}"):
            found = fitted[name] = fit_enclosure(space, rows)
    return found


def _fitted_lines(fitted: dict):
    for name in sorted(k for k in fitted if k != "disc"):
        yield f"fitted enclosure {name}: diameter {_fmt(fitted[name].diameter)}"
    if "disc" in fitted:
        yield f"fitted disc: a={complex(fitted['disc'].lo[0])}, A={complex(fitted['disc'].hi[0])}"


def _echo_document(inst: Instance, fitted: dict) -> dict:
    """The instance document with the fitted enclosures (the disc too) in place."""
    return instance_document(**vars(dataclasses.replace(inst, enclosures={**inst.enclosures, **fitted})))


def _min_slack(report):
    """The report's least slack; JSON has no inf, so a non-finite one is written as its text."""
    slack = float(report.min_slack())
    return slack if math.isfinite(slack) else _fmt(slack)


def _condition_summary(name: str, report) -> dict:
    return {
        "name": name,
        "kind": report.kind,
        "holds": bool(report.holds),
        "min_slack": _min_slack(report),
        "failing_indices": [int(i) for i in report.failing_indices()],
    }


def _check_lines(digest: str, inst: Instance, fitted: dict, conditions: list, all_hold: bool):
    """The text of ``check``, a line per point and condition: a generator, so a ``--json`` run renders none."""
    yield f"instance sha256 {digest}"
    yield f"space: {inst.space.field} dim={inst.space.dim}"
    yield from _fitted_lines(fitted)
    yield f"{'condition':<12}{'index':>6}  {'slack':<24}verdict"
    for name, report in conditions:
        for i, (slack, ok) in enumerate(zip(report.slacks, report.verdicts)):
            yield f"{name:<12}{i:>6}  {_fmt(slack):<24}{'ok' if ok else 'FAIL'}"
    if all_hold:
        yield "verdict: all conditions hold"
    for name, report in conditions:
        if not report.holds:
            i = int(report.failing_indices()[0])
            yield f"verdict: {name} fails at index {i} (slack {_fmt(report.slacks[i])})"


def cmd_check(args):
    inst, digest = _load(args.file)
    conditions: list = []
    fitted: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing slack fails its verdict
        for name in ("x", "y", "z"):
            seq = getattr(inst, ENCLOSED_SEQUENCE[name])
            encl = None if seq is None else _fit_missing(inst, name, args.fit, fitted)
            if encl is None:
                continue
            conditions.append((f"ball({name})", check_ball(encl, seq)))
            conditions.append((f"box({name})", check_box(encl, seq)))
        if inst.alphas is not None:
            disc = _fit_missing(inst, "disc", args.fit, fitted)
            if disc is not None:
                conditions.append(("disc(alpha)", _report(disc, disc.space.scalars(inst.alphas)[:, None], "disc")))
    if not conditions:
        raise InstanceFormatError(
            "nothing to check: no enclosure matches a sequence (supply enclosures or pass --fit)"
        )
    all_hold = all(report.holds for _, report in conditions)
    results = {
        "command": "check",
        "input_sha256": digest,
        "holds": all_hold,
        "fitted": sorted(fitted),
        "conditions": [_condition_summary(name, report) for name, report in conditions],
    }
    lines = _check_lines(digest, inst, fitted, conditions, all_hold)
    return 0 if all_hold else 1, results, lambda: _echo_document(inst, fitted), lines


def evaluate_tag(inst: Instance, which: str, fit: bool, check: bool, holder_p: float | None):
    """Run the chain selected by ``which`` on the parsed arrays; returns (chain, fitted).

    Inputs are checked in a fixed order, so the first missing one is the
    one reported: tag, weights, uniform weights, sequences, disc, enclosures.
    """
    spec = CHAINS.get(which)
    if spec is None:
        raise ContractViolationError(f"unknown tag {which!r}; valid tags: {', '.join(CHAINS)}")
    if inst.weights is None:
        raise InstanceFormatError("instance needs a weights array")
    w = inst.weights.weights
    if spec.uniform and float(np.max(np.abs(w * len(w) - 1.0))) > 1e-9:
        raise ContractViolationError(f"tag {which} requires uniform weights")
    arrays = {name: getattr(inst, name) for name in spec.sequences}
    for name, seq in arrays.items():
        if seq is None:
            raise InstanceFormatError(f"tag {which} needs sequences.{name}")
    fitted: dict = {}

    def supplied_or_fitted(name: str):
        found = _fit_missing(inst, name, fit, fitted)
        if found is None:
            what = "the scalar disc a/A" if name == "disc" else f"the {name!r} enclosure"
            raise InstanceFormatError(f"tag {which} needs {what}; supply it or pass --fit")
        return found

    encls = {name: supplied_or_fitted(name) for name in ("disc",) * spec.disc + spec.enclosures}
    space = inst.space
    if "xs" not in arrays:  # "R2.7" reads scalars only, as points of its disc's complex line
        space = encls["disc"].space
        arrays["alphas"] = space.scalars(arrays["alphas"])
    hp = holder_p if holder_p is not None else (inst.holder_p if inst.holder_p is not None else 2.0)
    with np.errstate(over="ignore", invalid="ignore"):  # BoundChain rejects non-finite values
        chain = _evaluate(spec, space, inst.weights, arrays, encls, check, hp)
    return chain, fitted


def _chain_results(chain: BoundChain) -> dict:
    return {
        "equation": chain.equation,
        "functional": {"label": chain.functional_label, "value": chain.functional_value},
        "links": [{"label": l.label, "value": l.value, "equation": l.equation} for l in chain.links],
        "ordered": chain.ordered,
        "tightest": chain.tightest_index() if chain.links else None,
        "hypothesis_verified": chain.hypothesis_verified,
        "holds": chain.holds(),
        "conditions": [_condition_summary(f"hypothesis[{i}]", r) for i, r in enumerate(chain.hypothesis_reports)],
    }


def _chain_lines(chain: dict):
    """The text of a chain, rendered from its :func:`_chain_results` block."""
    hyp = "verified" if chain["hypothesis_verified"] else "UNVERIFIED"
    suffix = f" (hypothesis {hyp})" if chain["conditions"] else ""
    yield f"{'chain' if chain['ordered'] else 'parallel bounds'} {chain['equation']}{suffix}"
    yield f"  {chain['functional']['label']:<42}= {_fmt(chain['functional']['value'])}"
    for i, link in enumerate(chain["links"]):
        marker = "   <- tightest" if i == chain["tightest"] and len(chain["links"]) > 1 else ""
        yield f"  <= {link['label']:<38} [{link['equation']}]  {_fmt(link['value'])}{marker}"
    word = "ordering" if chain["ordered"] else "dominance"
    yield f"{word}: {'holds' if chain['holds'] else 'VIOLATED'}"


def cmd_bound(args):
    inst, digest = _load(args.file)
    chain, fitted = evaluate_tag(inst, args.which, args.fit, not args.unchecked, args.holder_p)
    results = {"command": "bound", "which": args.which, "input_sha256": digest, **_chain_results(chain)}
    lines = [f"instance sha256 {digest}", *_fitted_lines(fitted), *_chain_lines(results)]
    return 0 if results["holds"] else 1, results, lambda: _echo_document(inst, fitted), lines


def cmd_jensen(args):
    from .jensen import get_oracle, gradient_check, reverse_jensen

    inst, digest = _load(args.file)
    if inst.space.is_complex:
        raise InstanceFormatError(
            "jensen needs a real space: convexity and gradients are real notions here"
        )
    if inst.weights is None:
        raise InstanceFormatError("instance needs a weights array")
    zs = inst.zs
    if zs is None:
        raise InstanceFormatError("jensen needs sequences.zs")
    name = args.oracle or inst.oracle
    if name is None:
        raise InstanceFormatError("no oracle: set 'oracle' in the file or pass --oracle")
    oracle = get_oracle(name, inst.space)

    with np.errstate(over="ignore", invalid="ignore"), _at("$.sequences.zs"):  # an overflow exits 2 at zs
        err = gradient_check(inst.space, oracle, zs, h=GRADIENT_CHECK_H)
        if err > GRADIENT_CHECK_MAX_ERR:
            raise GradientCheckError(
                f"gradient check FAILED for oracle {name!r}: max relative error {_fmt(err)} "
                f"> {GRADIENT_CHECK_MAX_ERR:g} at h={GRADIENT_CHECK_H:g}"
            )

        report = reverse_jensen(
            inst.space,
            oracle,
            inst.weights.weights,
            zs,
            grad_encl=inst.enclosures.get("grad"),
            z_encl=inst.enclosures.get("z"),
        )
    tol = 1e-10 * max(1.0, abs(report.gap), abs(report.pairing_gap))
    gap_ok = report.gap >= -tol and report.gap <= report.pairing_gap + tol
    ok = gap_ok and report.chain.holds()
    results = {
        "command": "jensen",
        "input_sha256": digest,
        "oracle": name,
        "gradient_check_error": err,
        "gap": report.gap,
        "pairing_gap": report.pairing_gap,
        "improvement_ratio": report.improvement_ratio,
        "holds": ok,
        "chain": _chain_results(report.chain),
    }
    lines = [
        f"instance sha256 {digest}",
        f"oracle {name}: gradient check max relative error {_fmt(err)}",
        f"  {'jensen_gap':<42}= {_fmt(report.gap)}",
        f"  {'pairing_gap':<42}= {_fmt(report.pairing_gap)}",
        *_chain_lines(results["chain"]),
    ]
    if report.improvement_ratio is not None:
        lines.append(f"improvement ratio (first link / quarter link): {_fmt(report.improvement_ratio)}")
    lines.append(f"verdict: {'holds' if ok else 'VIOLATED'}")
    return 0 if ok else 1, results, lambda: _echo_document(inst, {}), lines


def cmd_sharpness(args):
    from .sharpness import TARGETS, search

    result = search(args.target, args.n, args.dim, args.budget, args.seed)
    info = TARGETS[args.target]
    inst = instancefile.parse_document(result.witness)
    chain, _ = evaluate_tag(inst, info.equation, fit=False, check=True, holder_p=None)
    if args.dump_witness:
        instancefile.dump(result.witness, args.dump_witness)
    results = {
        "command": "sharpness",
        "target": result.target,
        "target_constant": result.target_constant,
        "achieved_ratio": result.achieved_ratio,
        "trials": result.trials,
        "seed": result.seed,
        "equation": info.equation,
        "link_index": info.link_index,
        "functional_value": chain.functional_value,
        "bound_value": chain.links[info.link_index].value,
    }
    lines = [
        f"target {result.target} (constant {result.target_constant:g}, chain {info.equation})",
        f"  achieved ratio = {_fmt(result.achieved_ratio)}",
        f"  functional     = {_fmt(chain.functional_value)}",
        f"  bound          = {_fmt(results['bound_value'])}",
        f"  trials {result.trials}, seed {result.seed}",
    ]
    if args.dump_witness:
        lines.append(f"witness written to {args.dump_witness}")
    return 0, results, lambda: result.witness, lines


#: Each failure class with its stderr prefix and exit code; the first row the error is an instance of applies.
_FAILURES = (
    (HypothesisError, "hypothesis violated: ", 1),
    (GradientCheckError, "", 1),
    ((SoundnessError, EnclosureFitError), "error: ", 1),
    (GrussBoundsError, "error: ", 2),
)


def _error_document(exc: GrussBoundsError, code: int) -> dict:
    """The ``--json`` document of a failure; a hypothesis failure adds its report's failing points."""
    error = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, HypothesisError) and exc.report is not None:
        error["failing_indices"] = [int(i) for i in exc.report.failing_indices()]
        error["min_slack"] = _min_slack(exc.report)
    return {"error": error}


def main(argv=None) -> int:
    """Run one command and write what it returns, or its failure.

    Output is formed whole before its first write, so a failure writes only its
    error.
    """
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        code, results, echo, lines = args.func(args)
        if args.as_json:
            out = instancefile.text_pieces({**echo(), "results": results})
        else:
            out = [f"{line}\n" for line in lines]
    except GrussBoundsError as exc:
        prefix, code = next((prefix, code) for cls, prefix, code in _FAILURES if isinstance(exc, cls))
        print(f"{prefix}{exc}", file=sys.stderr)
        if args.as_json:
            sys.stdout.writelines(instancefile.text_pieces(_error_document(exc, code)))
        return code
    sys.stdout.writelines(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
