"""Command-line entry point.

Subcommands: ``norm`` (Luxemburg or mixed norm of a stored field),
``verify`` (campaign from a JSON config), ``solve`` (fixed-point run from a
JSON config), ``campaign`` (built-in campaign defaults by target).  Exit
codes: 0 pass, 1 bound violated or not converged, 2 usage or I/O error,
which includes a norm tolerance too fine to certify.
``VARNS_THREADS`` caps the transform worker count (default 1, which keeps
runs bit-reproducible).
"""
from __future__ import annotations

import argparse
import json
import sys

from ..exponents import ExponentRangeError
from ..fields import as_count
from ..mild_solver import (
    ForceDivergenceError,
    PicardBlowupError,
    SmallnessError,
    picard_solve,
)
from ..varlp import BisectionError, luxemburg_norm, mixed_norm
from .campaigns import TARGETS, CampaignElementError, run_campaign
from .configs import build_campaign_config, build_solver_config, exponent_from_doc
from .fieldfile import FieldFileError, read_exponent, read_field
from .reports import ReportIOError, emit_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varns",
        description="variable-exponent norms and mild-solution verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="norm of a stored scalar field")
    norm.add_argument("--field", required=True, help="binary field file")
    norm.add_argument("--exponent", required=True,
                      help="JSON exponent descriptor or binary sample file")
    norm.add_argument("--mixed", type=float, default=None, metavar="FRAK_P",
                      help="also take the max with this constant-exponent norm")
    norm.add_argument("--tol", type=float, default=1e-8,
                      help="relative tolerance of the Luxemburg norm")

    verify = sub.add_parser("verify", help="run a campaign from a JSON config")
    verify.add_argument("--config", required=True)
    verify.add_argument("--out", default=None, help="JSON report path")
    verify.add_argument("--csv", default=None, help="CSV ratio table path")
    _campaign_overrides(verify, target_required=False)

    solve = sub.add_parser("solve", help="run the fixed-point solver")
    solve.add_argument("--config", required=True)
    solve.add_argument("--out", default=None, help="JSON report path")
    solve.add_argument("--csv", default=None, help="per-iterate CSV path")
    solve.add_argument("--max-iters", type=int, default=None)
    solve.add_argument("--tol-fixedpoint", type=float, default=None)
    solve.add_argument("--c-b", type=float, default=None,
                       help="skip estimation and use this operator constant")
    solve.add_argument("--trials", type=int, default=None,
                       help="estimation trials for the operator constant")
    solve.add_argument("--override-smallness", action="store_true",
                       help="iterate even when the contraction gate fails")

    campaign = sub.add_parser("campaign", help="run a built-in campaign")
    _campaign_overrides(campaign, target_required=True)
    campaign.add_argument("--out", default=None, help="JSON report path")
    campaign.add_argument("--csv", default=None, help="CSV ratio table path")
    return parser


def _campaign_overrides(cmd: argparse.ArgumentParser, target_required: bool):
    cmd.add_argument("--target", required=target_required, choices=TARGETS,
                     default=None)
    cmd.add_argument("--corpus-size", type=int, default=None)
    cmd.add_argument("--seed", type=int, default=None)
    cmd.add_argument("--bound", type=float, default=None)
    cmd.add_argument("--levels", type=int, default=None,
                     help="number of refinement levels")


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cmd_norm(args) -> int:
    f = read_field(args.field)
    if args.exponent.endswith(".vlpf"):
        p = read_exponent(args.exponent)
    else:
        p = exponent_from_doc(_load_json(args.exponent), f.grid)
    if p.grid != f.grid:
        raise ValueError("field and exponent live on different grids")
    if args.mixed is None:
        nv = luxemburg_norm(f, p, args.tol)
    else:
        nv = mixed_norm(f, p, args.mixed, args.tol)
    print(f"{nv.value!r}  kind={nv.kind}  tolerance={nv.tolerance!r}")
    return 0


def _campaign_override_dict(args) -> dict:
    return {
        "target": args.target,
        "corpus_size": args.corpus_size,
        "seed": args.seed,
        "bound": args.bound,
        "refinement_levels": args.levels,
    }


def _emit_requested(obj, args) -> None:
    if args.out:
        emit_report(obj, args.out, "json")
    if args.csv:
        emit_report(obj, args.csv, "csv")


def _cmd_verify(args, doc: dict | None = None) -> int:
    if doc is None:
        doc = _load_json(args.config)
    cfg = build_campaign_config(doc, _campaign_override_dict(args))
    report = run_campaign(cfg)
    _emit_requested(report, args)
    flag = "PASS" if report.passed else "FAIL"
    print(f"{report.target}: max ratio {report.observed_max_ratio:.6g} "
          f"vs bound {report.bound:.6g} [{flag}]")
    return 0 if report.passed else 1


def _cmd_campaign(args) -> int:
    return _cmd_verify(args, doc={"target": args.target})


def _cmd_solve(args) -> int:
    doc = _load_json(args.config)
    overrides = {"max_iters": args.max_iters, "tol_fixedpoint": args.tol_fixedpoint}
    cfg = build_solver_config(doc, overrides)
    result = picard_solve(
        cfg,
        c_b=args.c_b if args.c_b is not None else doc.get("c_b"),
        trials=(args.trials if args.trials is not None
                else as_count(doc.get("trials", 3), "trials")),
        seed=as_count(doc.get("estimate_seed", 0), "estimate_seed"),
        override_smallness=args.override_smallness or bool(doc.get("override_smallness")),
    )
    _emit_requested(result, args)
    verdict = result.smallness
    print(f"converged={result.converged} iterations={len(result.increments)} "
          f"residual={result.residual:.3e} delta={verdict.delta:.3e} "
          f"threshold={verdict.threshold:.3e}")
    return 0 if result.converged and verdict.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "norm": _cmd_norm,
        "verify": _cmd_verify,
        "solve": _cmd_solve,
        "campaign": _cmd_campaign,
    }
    try:
        return handlers[args.command](args)
    except (SmallnessError, PicardBlowupError, CampaignElementError) as exc:
        print(f"varns: {exc}", file=sys.stderr)
        return 1
    except (OSError, ReportIOError, FieldFileError, ForceDivergenceError,
            ExponentRangeError, BisectionError, json.JSONDecodeError, KeyError,
            TypeError, ValueError) as exc:
        print(f"varns: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
