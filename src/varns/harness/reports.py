"""Report emission: schema-versioned JSON records and plot-ready CSV.

JSON floats are written with shortest round-trip repr, so parsing a report
reproduces the record exactly.  Solver records carry the per-iterate
numbers, not the solution field itself; fields travel as separate binary
files.
"""
from __future__ import annotations

import csv
import json

from ..mild_solver import SolverResult
from .campaigns import InequalityReport

SCHEMA = "varns-report/1"


class ReportIOError(OSError):
    """Reading or writing a report failed; the message carries the path."""


def report_to_record(obj) -> dict:
    """Plain JSON-safe dict for a campaign report or a solver result;
    anything else raises ``TypeError``."""
    if isinstance(obj, InequalityReport):
        return {
            "schema": SCHEMA,
            "kind": "campaign",
            "target": obj.target,
            "statement": obj.statement,
            "bound": obj.bound,
            "observed_max_ratio": obj.observed_max_ratio,
            "per_level_max": list(obj.per_level_max),
            "passed": obj.passed,
            "worst_case": {
                "level": obj.worst_case.level,
                "element": obj.worst_case.element,
                "ratio": obj.worst_case.ratio,
            },
            "ratios": [list(row) for row in obj.ratios],
        }
    if isinstance(obj, SolverResult):
        verdict = obj.smallness
        return {
            "schema": SCHEMA,
            "kind": "solver",
            "iterates_norms": list(obj.iterates_norms),
            "increments": list(obj.increments),
            "residual": obj.residual,
            "contraction_estimate": obj.contraction_estimate,
            "c_b_estimate": obj.c_b_estimate,
            "converged": obj.converged,
            "divergence_defect": obj.divergence_defect,
            "smallness": {
                "delta": verdict.delta,
                "threshold": verdict.threshold,
                "c_b": verdict.c_b,
                "passed": verdict.passed,
                "admissible_T": verdict.admissible_T,
                "ladder": [list(row) for row in verdict.ladder],
            },
        }
    raise TypeError(f"cannot build a report record from {type(obj)!r}")


def _campaign_csv(record: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "level", "element", "ratio"])
        for level, row in enumerate(record["ratios"]):
            for element, ratio in enumerate(row):
                writer.writerow([record["target"], level, element, repr(ratio)])


def _solver_csv(record: dict, path) -> None:
    norms = record["iterates_norms"]
    increments = record["increments"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "E_norm", "increment_norm", "residual"])
        for i, norm in enumerate(norms):
            step_in = "" if i == 0 else repr(increments[i - 1])
            # the defect of iterate i equals the next increment; the last
            # iterate's defect is the separately measured residual
            step_out = repr(increments[i]) if i < len(increments) \
                else repr(record["residual"])
            writer.writerow([i, repr(norm), step_in, step_out])


def emit_report(obj, path, format: str = "json") -> None:
    record = report_to_record(obj)
    try:
        if format == "json":
            with open(path, "w") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
        elif format == "csv":
            if record["kind"] == "campaign":
                _campaign_csv(record, path)
            else:
                _solver_csv(record, path)
        else:
            raise ValueError(f"unknown report format {format!r}")
    except OSError as exc:
        raise ReportIOError(f"cannot write report to {path}: {exc}") from exc


def parse_report(path) -> dict:
    try:
        with open(path) as fh:
            record = json.load(fh)
    except OSError as exc:
        raise ReportIOError(f"cannot read report from {path}: {exc}") from exc
    if not isinstance(record, dict) or record.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} document")
    return record
