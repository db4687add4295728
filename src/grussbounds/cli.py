"""Command-line front end.

Subcommands::

    check      verify ball/box/disc conditions of an instance file
    bound      evaluate one bound chain against its functional
    jensen     reverse-Jensen report for a convex oracle
    sharpness  randomized search for near-equality witnesses

Exit codes: 0 success, 1 hypothesis/inequality concern, 2 usage or parse
error. ``--json`` prints one structured document per run (the instance echo
plus a ``results`` block); human output is a fixed-width table. All numbers
are rendered with 17 significant digits so round-trips are lossless.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import instancefile
from .bounds import CHAINS, BoundChain
from .conditions import check_ball, check_box, check_scalar_disc, fit_enclosure
from .errors import (
    ContractViolationError,
    EnclosureFitError,
    GrussBoundsError,
    HypothesisError,
    InstanceFormatError,
    SoundnessError,
)
from .instancefile import Instance, instance_document
from .jensen import ORACLE_FACTORIES, get_oracle, gradient_check, reverse_jensen
from .sharpness import TARGETS, search
from .space import Space

#: The sequence each enclosure (or the scalar disc) of an instance bounds.
_ENCLOSED_SEQUENCE = {"x": "xs", "y": "ys", "z": "zs", "disc": "alphas"}

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grussbounds",
        description="Certified bound chains for weighted vector sequences in inner product spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify ball/box/disc conditions of an instance file")
    p.add_argument("file")
    p.add_argument("--fit", action="store_true", help="fit enclosures missing from the file")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bound", help="evaluate one bound chain against its functional")
    p.add_argument("file")
    p.add_argument("--which", required=True, metavar="TAG", help=f"one of: {', '.join(CHAINS)}")
    p.add_argument("--fit", action="store_true", help="fit enclosures/discs missing from the file")
    p.add_argument("--unchecked", action="store_true", help="evaluate even if the hypothesis fails")
    p.add_argument("--holder-p", type=_holder_arg, default=None, help="Holder exponent (> 1 or 'inf')")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("jensen", help="reverse-Jensen report for a convex oracle")
    p.add_argument("file")
    p.add_argument("--oracle", default=None, help=f"override the file's oracle; one of: {', '.join(sorted(ORACLE_FACTORIES))}")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.set_defaults(func=cmd_jensen)

    p = sub.add_parser("sharpness", help="randomized search for near-equality witnesses")
    p.add_argument("--target", required=True, choices=sorted(TARGETS))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-witness", metavar="PATH", default=None, help="write the witness instance file")
    p.add_argument("--json", dest="as_json", action="store_true")
    p.set_defaults(func=cmd_sharpness)
    return parser


def _load(path: str) -> tuple[Instance, str]:
    text = instancefile._read(path)
    return instancefile.loads(text), instancefile.sha256_hex(text)


def _fit_disc(alphas: np.ndarray) -> tuple[complex, complex]:
    encl = fit_enclosure(Space(1, "complex"), alphas[:, None])
    return complex(encl.lo[0]), complex(encl.hi[0])


def _fit_missing(inst: Instance, name: str, fit: bool, fitted: dict):
    """The file's enclosure (or disc) ``name``; if absent and ``fit`` is set, a fit recorded in ``fitted``."""
    found = inst.disc if name == "disc" else inst.enclosures.get(name)
    if found is None and fit:
        seq = _ENCLOSED_SEQUENCE[name]
        try:
            found = _fit_disc(inst.alphas) if name == "disc" else fit_enclosure(inst.space, getattr(inst, seq))
        except ContractViolationError as exc:
            raise ContractViolationError(f"$.sequences.{seq}: {exc}") from None
        fitted[name] = found
    return found


def _print_fitted(fitted: dict) -> None:
    for name in sorted(k for k in fitted if k != "disc"):
        print(f"fitted enclosure {name}: diameter {_fmt(fitted[name].diameter)}")
    if "disc" in fitted:
        print(f"fitted disc: a={fitted['disc'][0]}, A={fitted['disc'][1]}")


def _echo_document(inst: Instance, fitted: dict, disc) -> dict:
    enclosures = dict(inst.enclosures)
    enclosures.update({k: v for k, v in fitted.items() if k != "disc"})
    return instance_document(
        inst.space,
        weights=inst.weights,
        xs=inst.xs,
        ys=inst.ys,
        zs=inst.zs,
        alphas=inst.alphas,
        enclosures=enclosures,
        disc=disc if disc is not None else inst.disc,
        oracle=inst.oracle,
        holder_p=inst.holder_p,
    )


def _condition_summary(name: str, report) -> dict:
    return {
        "name": name,
        "kind": report.kind,
        "holds": bool(report.holds),
        "min_slack": float(report.min_slack()),
        "failing_indices": [int(i) for i in report.failing_indices()],
    }


def _print_conditions(conditions) -> None:
    print(f"{'condition':<12}{'index':>6}  {'slack':<24}verdict")
    for name, report in conditions:
        for i, (slack, ok) in enumerate(zip(report.slacks, report.verdicts)):
            print(f"{name:<12}{i:>6}  {_fmt(slack):<24}{'ok' if ok else 'FAIL'}")


def cmd_check(args) -> int:
    inst, digest = _load(args.file)
    conditions: list = []
    fitted: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing slack fails its verdict
        for name in ("x", "y", "z"):
            seq = getattr(inst, _ENCLOSED_SEQUENCE[name])
            encl = None if seq is None else _fit_missing(inst, name, args.fit, fitted)
            if encl is None:
                continue
            conditions.append((f"ball({name})", check_ball(encl, seq)))
            conditions.append((f"box({name})", check_box(encl, seq)))
        disc = inst.disc
        if inst.alphas is not None:
            disc = _fit_missing(inst, "disc", args.fit, fitted)
            if disc is not None:
                conditions.append(("disc(alpha)", check_scalar_disc(disc[0], disc[1], inst.alphas)))
    if not conditions:
        raise InstanceFormatError(
            "nothing to check: no enclosure matches a sequence (supply enclosures or pass --fit)"
        )
    all_hold = all(report.holds for _, report in conditions)
    if args.as_json:
        doc = _echo_document(inst, fitted, disc)
        doc["results"] = {
            "command": "check",
            "input_sha256": digest,
            "holds": all_hold,
            "fitted": sorted(fitted),
            "conditions": [_condition_summary(name, report) for name, report in conditions],
        }
        sys.stdout.write(instancefile.dumps(doc))
    else:
        print(f"instance sha256 {digest}")
        print(f"space: {inst.space.field} dim={inst.space.dim}")
        _print_fitted(fitted)
        _print_conditions(conditions)
        if all_hold:
            print("verdict: all conditions hold")
        else:
            for name, report in conditions:
                if not report.holds:
                    i = int(report.failing_indices()[0])
                    print(f"verdict: {name} fails at index {i} (slack {_fmt(report.slacks[i])})")
    return 0 if all_hold else 1


def evaluate_tag(inst: Instance, which: str, fit: bool, check: bool, holder_p: float | None):
    """Run the chain selected by ``which``; returns (chain, fitted, disc).

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
    seqs = {name: getattr(inst, name) for name in spec.sequences}
    for name, seq in seqs.items():
        if seq is None:
            raise InstanceFormatError(f"tag {which} needs sequences.{name}")
    fitted: dict = {}

    def supplied_or_fitted(name: str, what: str):
        found = _fit_missing(inst, name, fit, fitted)
        if found is None:
            raise InstanceFormatError(f"tag {which} needs {what}; supply it or pass --fit")
        return found

    disc = supplied_or_fitted("disc", "the scalar disc a/A") if spec.disc else None
    encls = {name: supplied_or_fitted(name, f"the {name!r} enclosure") for name in spec.enclosures}
    hp = holder_p if holder_p is not None else (inst.holder_p if inst.holder_p is not None else 2.0)
    with np.errstate(over="ignore", invalid="ignore"):  # BoundChain rejects non-finite values
        chain = spec.build(inst.space, inst.weights, seqs, encls, disc, check, hp)
    return chain, fitted, disc


def _print_chain(chain: BoundChain) -> None:
    kind = "chain" if chain.ordered else "parallel bounds"
    hyp = "verified" if chain.hypothesis_verified else "UNVERIFIED"
    suffix = "" if not chain.hypothesis_reports else f" (hypothesis {hyp})"
    print(f"{kind} {chain.equation}{suffix}")
    print(f"  {chain.functional_label:<42}= {_fmt(chain.functional_value)}")
    tightest = chain.tightest_index()
    for i, link in enumerate(chain.links):
        marker = "   <- tightest" if i == tightest and len(chain.links) > 1 else ""
        print(f"  <= {link.label:<39}[{link.equation}]  {_fmt(link.value)}{marker}")
    word = "ordering" if chain.ordered else "dominance"
    print(f"{word}: {'holds' if chain.holds() else 'VIOLATED'}")


def _chain_results(chain: BoundChain, names: tuple = ()) -> dict:
    reports = [
        _condition_summary(name, report)
        for name, report in zip(names or [f"hypothesis[{i}]" for i in range(len(chain.hypothesis_reports))], chain.hypothesis_reports)
    ]
    return {
        "equation": chain.equation,
        "functional": {"label": chain.functional_label, "value": chain.functional_value},
        "links": [{"label": l.label, "value": l.value, "equation": l.equation} for l in chain.links],
        "ordered": chain.ordered,
        "tightest": chain.tightest_index() if chain.links else None,
        "hypothesis_verified": chain.hypothesis_verified,
        "holds": chain.holds(),
        "conditions": reports,
    }


def cmd_bound(args) -> int:
    inst, digest = _load(args.file)
    chain, fitted, disc = evaluate_tag(inst, args.which, args.fit, not args.unchecked, args.holder_p)
    if args.as_json:
        doc = _echo_document(inst, fitted, disc)
        doc["results"] = {"command": "bound", "which": args.which, "input_sha256": digest}
        doc["results"].update(_chain_results(chain))
        sys.stdout.write(instancefile.dumps(doc))
    else:
        print(f"instance sha256 {digest}")
        _print_fitted(fitted)
        _print_chain(chain)
    return 0 if chain.holds() else 1


def cmd_jensen(args) -> int:
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

    err = gradient_check(inst.space, oracle, zs, h=GRADIENT_CHECK_H)
    if err > GRADIENT_CHECK_MAX_ERR:
        print(
            f"gradient check FAILED for oracle {name!r}: max relative error {_fmt(err)} "
            f"> {GRADIENT_CHECK_MAX_ERR:g} at h={GRADIENT_CHECK_H:g}",
            file=sys.stderr,
        )
        return 1

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
    if args.as_json:
        doc = _echo_document(inst, {}, None)
        doc["results"] = {
            "command": "jensen",
            "input_sha256": digest,
            "oracle": name,
            "gradient_check_error": err,
            "gap": report.gap,
            "pairing_gap": report.pairing_gap,
            "improvement_ratio": report.improvement_ratio,
            "holds": ok,
        }
        doc["results"].update({"chain": _chain_results(report.chain)})
        sys.stdout.write(instancefile.dumps(doc))
    else:
        print(f"instance sha256 {digest}")
        print(f"oracle {name}: gradient check max relative error {_fmt(err)}")
        print(f"  {'jensen_gap':<42}= {_fmt(report.gap)}")
        print(f"  {'pairing_gap':<42}= {_fmt(report.pairing_gap)}")
        _print_chain(report.chain)
        if report.improvement_ratio is not None:
            print(f"improvement ratio (first link / quarter link): {_fmt(report.improvement_ratio)}")
        print(f"verdict: {'holds' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def cmd_sharpness(args) -> int:
    result = search(args.target, args.n, args.dim, args.budget, args.seed)
    info = TARGETS[args.target]
    inst = instancefile.parse_document(result.witness)
    chain, _, _ = evaluate_tag(inst, info.equation, fit=False, check=True, holder_p=None)
    bound_value = chain.links[info.link_index].value
    if args.dump_witness:
        instancefile.dump(result.witness, args.dump_witness)
    if args.as_json:
        doc = dict(result.witness)
        doc["results"] = {
            "command": "sharpness",
            "target": result.target,
            "target_constant": result.target_constant,
            "achieved_ratio": result.achieved_ratio,
            "trials": result.trials,
            "seed": result.seed,
            "equation": info.equation,
            "link_index": info.link_index,
            "functional_value": chain.functional_value,
            "bound_value": bound_value,
        }
        sys.stdout.write(instancefile.dumps(doc))
    else:
        print(f"target {result.target} (constant {result.target_constant:g}, chain {info.equation})")
        print(f"  achieved ratio = {_fmt(result.achieved_ratio)}")
        print(f"  functional     = {_fmt(chain.functional_value)}")
        print(f"  bound          = {_fmt(bound_value)}")
        print(f"  trials {result.trials}, seed {result.seed}")
        if args.dump_witness:
            print(f"witness written to {args.dump_witness}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 1
    except (SoundnessError, EnclosureFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GrussBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
