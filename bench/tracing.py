"""Span tracing of the library's layers, installed from outside the library.

A traced run wraps the public entry points of each layer and rebinds the
wrapped names in every ``varns`` module that holds them, so calls between
layers go through the wrappers while the library's source stays untouched.
Each wrapped call records a span ``(id, parent, name, start, end)``; a
span's self time is its duration minus the time covered by its children.
An untraced run never imports this module, so it wraps nothing.

Totals are kept per phase: ``setup`` (building inputs, once per run),
``round`` (the repeated work) and ``check`` (library calls made while
checking outputs: worst-case replays, reference inputs, scale probes).
:meth:`Tracer.metrics` reports one set-up plus one average round and leaves
the checks out.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from varns import exponents, fields, mild_solver, operators, varlp
from varns.harness import campaigns, configs, corpus, reports
from workloads import SWEEP_TARGETS

# per-layer metrics: (name, unit, better)
PER_LAYER = (
    [
        ("operators.fft_forward_calls", "count", "lower"),
        ("operators.fft_inverse_calls", "count", "lower"),
        ("operators.fft_s", "s", "lower"),
        ("operators.fft_mb", "MB", "lower"),
        ("operators.duhamel_accumulate_s", "s", "lower"),
        ("operators.maximal_function_s", "s", "lower"),
        ("operators.riesz_potential_direct_s", "s", "lower"),
        ("operators.radial_majorant_defect_s", "s", "lower"),
        ("mild_solver.bilinear_term_s", "s", "lower"),
        ("mild_solver.bilinear_term_calls", "count", "lower"),
        ("mild_solver.initial_term_s", "s", "lower"),
        ("mild_solver.initial_term_calls", "count", "lower"),
        ("mild_solver.initial_terms_per_solve", "calls/solve", "lower"),
        ("mild_solver.estimate_bilinear_constant_s", "s", "lower"),
        ("mild_solver.smallness_check_s", "s", "lower"),
        ("mild_solver.norm_s", "s", "lower"),
        ("mild_solver.picard_solve_self_s", "s", "lower"),
        ("mild_solver.picard_iterations", "count", "lower"),
        ("varlp.luxemburg_calls", "count", "lower"),
        ("varlp.luxemburg_s", "s", "lower"),
        ("varlp.luxemburg_points", "count", "lower"),
    ]
    + [(f"harness.campaigns.{t}_s", "s", "lower") for t in SWEEP_TARGETS]
    + [
        ("harness.campaigns.evaluations", "count", "lower"),
        ("harness.corpus.generate_corpus_s", "s", "lower"),
        ("exponents.make_exponent_s", "s", "lower"),
        ("harness.configs.build_solver_config_s", "s", "lower"),
        ("fields.scalar_field_constructions", "count", "lower"),
        ("harness.reports.emit_report_s", "s", "lower"),
        ("harness.reports.parse_report_s", "s", "lower"),
        ("harness.reports.bytes_written", "bytes", "lower"),
        ("trace.time_to_result_s", "s", "lower"),
    ]
)


class Tracer:
    """In-memory span recorder with per-phase self times and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[list] = []  # [id, name, start, child_time]
        self.phase = "setup"
        phases = ("setup", "round", "check")
        self.self_s = {phase: defaultdict(float) for phase in phases}
        self.counts = {phase: defaultdict(float) for phase in phases}

    def count(self, name: str, n: float = 1.0) -> None:
        self.counts[self.phase][name] += n

    def innermost(self) -> str | None:
        return self._open[-1][1] if self._open else None

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._open)

    def call(self, name: str, fn, args, kwargs):
        span_id = len(self.spans) + len(self._open)
        parent = self._open[-1][0] if self._open else None
        frame = [span_id, name, time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            duration = end - frame[2]
            self.self_s[self.phase][name] += duration - frame[3]
            if self._open:
                self._open[-1][3] += duration
            self.spans.append((span_id, parent, name, frame[2], end))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def metrics(self, rounds: int, time_to_result_s: float) -> dict:
        """Per-layer figures for one set-up plus one average round."""
        def total(table, name):
            return table["setup"][name] + table["round"][name] / rounds

        def self_s(*names):
            return sum(total(self.self_s, n) for n in names)

        def count(name):
            return total(self.counts, name)

        solves = count("mild_solver.picard_solve")
        out = {
            "operators.fft_forward_calls": count("operators.fft_forward"),
            "operators.fft_inverse_calls": count("operators.fft_inverse"),
            "operators.fft_s": self_s("operators.fft_forward", "operators.fft_inverse"),
            "operators.fft_mb": count("operators.fft_bytes") / 1e6,
            "operators.duhamel_accumulate_s": self_s("operators.duhamel_accumulate"),
            "operators.maximal_function_s": self_s("operators.maximal_function"),
            "operators.riesz_potential_direct_s": self_s("operators.riesz_potential_direct"),
            "operators.radial_majorant_defect_s": self_s("operators.radial_majorant_defect"),
            "mild_solver.bilinear_term_s": self_s("mild_solver.bilinear_term"),
            "mild_solver.bilinear_term_calls": count("mild_solver.bilinear_term"),
            "mild_solver.initial_term_s": self_s("mild_solver.initial_term"),
            "mild_solver.initial_term_calls": count("mild_solver.initial_term"),
            "mild_solver.initial_terms_per_solve":
                count("mild_solver.initial_term_in_solve") / solves if solves else 0.0,
            "mild_solver.estimate_bilinear_constant_s":
                self_s("mild_solver.estimate_bilinear_constant"),
            "mild_solver.smallness_check_s": self_s("mild_solver.smallness_check"),
            "mild_solver.norm_s": self_s("mild_solver.norm_E_thm1", "mild_solver.norm_E_thm2"),
            "mild_solver.picard_solve_self_s": self_s("mild_solver.picard_solve"),
            "mild_solver.picard_iterations": count("mild_solver.picard_iterations"),
            "varlp.luxemburg_calls": count("varlp.luxemburg_norm"),
            "varlp.luxemburg_s": self_s("varlp.luxemburg_norm"),
            "varlp.luxemburg_points": count("varlp.luxemburg_points"),
        }
        for t in SWEEP_TARGETS:
            # inclusive: everything one target's campaign spends, corpora included
            out[f"harness.campaigns.{t}_s"] = count(f"harness.campaigns.{t}_inclusive_s")
        out.update({
            "harness.campaigns.evaluations": count("harness.campaigns.evaluate_element"),
            "harness.corpus.generate_corpus_s": self_s("harness.corpus.generate_corpus"),
            "exponents.make_exponent_s": self_s("exponents.make_exponent"),
            "harness.configs.build_solver_config_s": self_s("harness.configs.build_solver_config"),
            "fields.scalar_field_constructions": count("fields.scalar_field"),
            "harness.reports.emit_report_s": self_s("harness.reports.emit_report"),
            "harness.reports.parse_report_s": self_s("harness.reports.parse_report"),
            "harness.reports.bytes_written": count("harness.reports.bytes_written"),
            "trace.time_to_result_s": time_to_result_s,
        })
        return out


def _rebind(original, replacement) -> None:
    """Point every ``varns`` module name bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "varns" or name.startswith("varns.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _traced(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; call once, after importing varns."""
    def wrap(module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        _rebind(original, _traced(tracer, name, original, before, after))

    # fields: count container constructions (too many and too small to span)
    post_init = fields.ScalarField.__post_init__

    def counted_post_init(self):
        tracer.count("fields.scalar_field")
        post_init(self)
    fields.ScalarField.__post_init__ = counted_post_init

    # operators: the spectral workspace's transforms, then real-space operators
    ws_cls = operators.SpectralWorkspace
    for method, name in (("forward", "operators.fft_forward"),
                         ("inverse", "operators.fft_inverse")):
        def fft_bytes(args, kwargs, result, name=name):
            tracer.count(name)
            tracer.count("operators.fft_bytes", args[1].nbytes + result.nbytes)
        setattr(ws_cls, method, _traced(tracer, name, getattr(ws_cls, method),
                                        after=fft_bytes))
    for attr in ("maximal_function", "riesz_potential_direct", "radial_majorant_defect"):
        wrap(operators, attr, f"operators.{attr}")

    # the per-node spectra a Duhamel sum pulls are the caller's work (the
    # transport term for bilinear_term, the forcing for initial_term), so
    # the callback's spans carry the caller's name
    duhamel = operators.duhamel_accumulate

    def traced_duhamel(hat_at_node, tg, ws):
        owner = tracer.innermost() or "operators.duhamel_callback"

        def hat(i):
            return tracer.call(owner, hat_at_node, (i,), {})
        return tracer.call("operators.duhamel_accumulate", duhamel, (hat, tg, ws), {})
    _rebind(duhamel, functools.wraps(duhamel)(traced_duhamel))

    wrap(exponents, "make_exponent", "exponents.make_exponent")
    wrap(varlp, "luxemburg_norm", "varlp.luxemburg_norm",
         before=lambda a, k: (tracer.count("varlp.luxemburg_norm"),
                              tracer.count("varlp.luxemburg_points", a[0].values.size)))

    def initial_term_count(args, kwargs):
        tracer.count("mild_solver.initial_term")
        if tracer.inside("mild_solver.picard_solve"):
            tracer.count("mild_solver.initial_term_in_solve")
    wrap(mild_solver, "initial_term", "mild_solver.initial_term", before=initial_term_count)
    wrap(mild_solver, "bilinear_term", "mild_solver.bilinear_term",
         before=lambda a, k: tracer.count("mild_solver.bilinear_term"))
    for attr in ("estimate_bilinear_constant", "smallness_check", "norm_E_thm1",
                 "norm_E_thm2"):
        wrap(mild_solver, attr, f"mild_solver.{attr}")

    def solve_done(args, kwargs, result):
        tracer.count("mild_solver.picard_solve")
        tracer.count("mild_solver.picard_iterations", len(result.increments))
    wrap(mild_solver, "picard_solve", "mild_solver.picard_solve", after=solve_done)

    wrap(corpus, "generate_corpus", "harness.corpus.generate_corpus")
    wrap(configs, "build_solver_config", "harness.configs.build_solver_config")
    wrap(campaigns, "evaluate_element", "harness.campaigns.evaluate_element",
         before=lambda a, k: tracer.count("harness.campaigns.evaluate_element"))

    run_campaign = campaigns.run_campaign

    def timed_campaign(cfg):
        start = time.perf_counter()
        try:
            return tracer.call(f"harness.campaigns.{cfg.target}", run_campaign, (cfg,), {})
        finally:
            tracer.count(f"harness.campaigns.{cfg.target}_inclusive_s",
                         time.perf_counter() - start)
    _rebind(run_campaign, functools.wraps(run_campaign)(timed_campaign))

    wrap(reports, "emit_report", "harness.reports.emit_report",
         after=lambda a, k, r: tracer.count("harness.reports.bytes_written",
                                            os.path.getsize(a[1])))
    wrap(reports, "parse_report", "harness.reports.parse_report")
