"""Harness checks: field files, corpora, campaigns, reports, configs, CLI."""
from __future__ import annotations

import csv
import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from varns import (
    PERIODIC,
    TRUNCATED,
    GridSpec,
    ScalarField,
    TensorField,
    TimeGrid,
    VectorField,
    classical_norm,
    divergence,
    leray_project,
    log_holder_constants,
    luxemburg_norm,
    make_exponent,
    make_workspace,
    mixed_norm,
    modular,
    picard_solve,
    tensor_divergence,
)
from varns.harness import (
    CampaignConfig,
    CampaignElementError,
    FieldFileError,
    ReportIOError,
    antisymmetric_tensor_field,
    build_campaign_config,
    build_solver_config,
    default_campaign_config,
    emit_report,
    evaluate_element,
    generate_corpus,
    parse_report,
    read_exponent,
    read_field,
    replay_worst_case,
    report_to_record,
    run_campaign,
    write_exponent,
    write_field,
)
from varns.harness import campaigns
from varns.harness.campaigns import TARGETS
from varns.harness.cli import main
from varns.harness.configs import exponent_from_doc, grid_from_doc
from varns.harness.reports import SCHEMA
from varns.operators import worker_count

TWO_PI = 2.0 * np.pi


def line(res=512):
    return GridSpec(1, (40.0,), (res,), TRUNCATED, (-20.0,))


def torus(res=12):
    return GridSpec(3, (TWO_PI,) * 3, (res,) * 3, PERIODIC)


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def small_solver_doc(amplitude=0.05, c_b=0.05):
    return {
        "grid": {"dimension": 3, "extents": [TWO_PI] * 3, "resolution": [8] * 3,
                 "topology": PERIODIC},
        "T": 0.25,
        "steps": 8,
        "regime": "thm1",
        "p": {"family": "constant", "params": [2.5]},
        "u0": {"seed": 3, "amplitude": amplitude},
        "c_b": c_b,
    }


@pytest.fixture(scope="module")
def campaign_report():
    return run_campaign(default_campaign_config("grad_heat", corpus_size=4,
                                                refinement_levels=2))


@pytest.fixture(scope="module")
def solver_result():
    cfg = build_solver_config(small_solver_doc())
    return picard_solve(cfg, c_b=0.05)


class TestFieldFile:
    def test_scalar_round_trip_is_bit_exact(self, tmp_path):
        g = GridSpec(3, (6.0, 8.0, 10.0), (4, 6, 8), TRUNCATED, (-3.0, 1.0, -5.0))
        f = ScalarField(np.random.default_rng(5).standard_normal(g.shape), g)
        path = tmp_path / "f.vlpf"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == g
        assert back.values.tobytes() == f.values.tobytes()

    def test_periodic_topology_survives(self, tmp_path):
        g = torus(8)
        f = ScalarField(np.cos(np.broadcast_to(g.coords()[0], g.shape)), g)
        path = tmp_path / "t.vlpf"
        write_field(f, path)
        back = read_field(path)
        assert back.grid.topology == PERIODIC
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_exponent_round_trip_keeps_samples_only(self, tmp_path):
        g = line()
        p = make_exponent("radial-log", (2.5, 0.5), g)
        path = tmp_path / "p.vlpf"
        write_exponent(p, path)
        back = read_exponent(path)
        assert back.samples.tobytes() == p.samples.tobytes()
        assert back.grid == g
        assert back.p_infinity is None
        assert read_exponent(path, p_infinity=2.5).p_infinity == 2.5

    def _blob(self, tmp_path):
        g = line(32)
        f = ScalarField(np.linspace(0.0, 1.0, 32), g)
        path = tmp_path / "base.vlpf"
        write_field(f, path)
        return path.read_bytes()

    def _expect_reject(self, tmp_path, data, pattern):
        path = tmp_path / "broken.vlpf"
        path.write_bytes(data)
        with pytest.raises(FieldFileError, match=pattern):
            read_field(path)

    def test_corrupt_bytes_are_rejected(self, tmp_path):
        blob = self._blob(tmp_path)
        self._expect_reject(tmp_path, b"XLPF" + blob[4:], "magic")
        self._expect_reject(tmp_path, blob[:16], "truncated header")
        self._expect_reject(tmp_path, blob[:4] + b"\x07\x00" + blob[6:], "version")
        self._expect_reject(tmp_path, blob[:8] + b"\x05" + blob[9:], "topology code")
        self._expect_reject(tmp_path, blob[:40], "axis table")
        self._expect_reject(tmp_path, blob[:-8], "payload")

    def test_a_forged_sample_count_is_rejected(self, tmp_path, capsys):
        # 2**31 * 2**31 * 4 samples wrap to 0 in int64; the count must not,
        # so the empty payload fails the length check, not numpy's reshape
        header = struct.pack("<4sHHB23x", b"VLPF", 1, 3, 0)
        axes = b"".join(struct.pack("<Idd", n, 1.0, 0.0) for n in (2**31, 2**31, 4))
        self._expect_reject(tmp_path, header + axes,
                            "payload holds 0 bytes, expected 147573952589676412928")
        path = tmp_path / "broken.vlpf"
        assert main(["norm", "--field", str(path), "--exponent", str(path)]) == 2
        assert "payload holds 0 bytes" in capsys.readouterr().err

    def test_error_message_carries_the_path(self, tmp_path):
        path = tmp_path / "named.vlpf"
        path.write_bytes(b"junk")
        with pytest.raises(FieldFileError, match="named.vlpf"):
            read_field(path)


class TestCorpus:
    def test_same_seed_regenerates_bit_for_bit(self):
        g = line()
        first = generate_corpus("smooth-decaying", 4, g, seed=11)
        second = generate_corpus("smooth-decaying", 4, g, seed=11)
        for a, b in zip(first, second):
            assert a.values.tobytes() == b.values.tobytes()
        other = generate_corpus("smooth-decaying", 4, g, seed=12)
        assert any(a.values.tobytes() != c.values.tobytes()
                   for a, c in zip(first, other))

    def test_smooth_fields_vanish_at_the_boundary(self):
        g = GridSpec(3, (24.0,) * 3, (16,) * 3, TRUNCATED, (-12.0,) * 3)
        for f in generate_corpus("smooth-decaying", 4, g, seed=2):
            v = f.values
            faces = [v[0], v[-1], v[:, 0], v[:, -1], v[:, :, 0], v[:, :, -1]]
            assert max(np.max(np.abs(face)) for face in faces) <= 1e-12

    def test_indicator_modular_equals_its_measure(self):
        g = line()
        p = make_exponent("radial-log", (2.0, 0.5), g)
        for f in generate_corpus("indicator-union", 5, g, seed=8):
            assert set(np.unique(f.values)) <= {0.0, 1.0}
            measure = g.cell_volume * np.count_nonzero(f.values)
            assert modular(f, p) == pytest.approx(measure, rel=1e-13)

    def test_transverse_wave_fields_are_solenoidal(self):
        g = torus(16)
        ws = make_workspace(g)
        for u in generate_corpus("divergence-free", 3, g, seed=7):
            assert isinstance(u, VectorField)
            amp = max(np.max(np.abs(c.values)) for c in u.components)
            assert np.max(np.abs(divergence(u, ws).values)) <= 1e-10 * amp

    def test_solenoidal_corpus_needs_a_torus(self):
        with pytest.raises(ValueError, match="torus"):
            generate_corpus("divergence-free", 1, line(), 0)
        box = GridSpec(3, (8.0,) * 3, (8,) * 3, TRUNCATED, (-4.0,) * 3)
        with pytest.raises(ValueError, match="torus"):
            generate_corpus("divergence-free", 1, box, 0)

    @pytest.mark.parametrize("kind", ["plane-wave-mix", "smooth-decaying", "indicator-union",
                                      "divergence-free"])
    def test_wave_corpus_refines_to_the_same_fields(self, kind):
        # no draw depends on the grid, so the same seed on a doubled torus
        # resamples the same analytic fields, and its even nodes are the
        # coarse nodes exactly: restriction to them must agree
        coarse_grid = torus(12)
        coarse = generate_corpus(kind, 3, coarse_grid, seed=3)
        fine = generate_corpus(kind, 3, coarse_grid.refine(2), seed=3)
        for c, f in zip(coarse, fine):
            np.testing.assert_allclose(f.values[..., ::2, ::2, ::2], c.values,
                                       rtol=0.0, atol=1e-12)

    def test_bad_requests_are_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus kind"):
            generate_corpus("chirps", 2, line(), 0)
        with pytest.raises(ValueError, match="at least 1"):
            generate_corpus("smooth-decaying", 0, line(), 0)


class TestAntisymmetricTensor:
    def test_antisymmetry_is_exact(self):
        g = torus()
        t = antisymmetric_tensor_field(g, seed=4)
        assert isinstance(t, TensorField)
        for l in range(3):
            assert not np.any(t.components[l][l].values)
            for m in range(3):
                assert np.array_equal(t.components[l][m].values,
                                      -t.components[m][l].values)

    def test_double_divergence_vanishes(self):
        g = torus(16)
        ws = make_workspace(g)
        t = antisymmetric_tensor_field(g, seed=9)
        scale = max(np.max(np.abs(t.components[l][m].values))
                    for l in range(3) for m in range(3))
        residual = divergence(tensor_divergence(t, ws), ws)
        assert np.max(np.abs(residual.values)) <= 1e-13 * scale

    def test_amplitude_scales_the_entries_exactly(self):
        g = torus()
        base = antisymmetric_tensor_field(g, seed=2, amplitude=1.0)
        double = antisymmetric_tensor_field(g, seed=2, amplitude=2.0)
        assert np.array_equal(double.components[0][1].values,
                              2.0 * base.components[0][1].values)


def _line_field():
    g = GridSpec(1, (2.0,), (16,), TRUNCATED, (-1.0,))
    return ScalarField(np.exp(-g.coords()[0] ** 2), g), make_exponent("constant", (3.0,), g)


def _campaign(**changes):
    return dataclasses.replace(default_campaign_config("proposition1"), **changes)


@pytest.mark.parametrize("build", [
    lambda: luxemburg_norm(*_line_field(), tol=float("nan")),
    lambda: luxemburg_norm(*_line_field(), tol=float("inf")),
    lambda: classical_norm(_line_field()[0], float("nan")),
    lambda: classical_norm(_line_field()[0], float("inf")),
    lambda: mixed_norm(*_line_field(), float("nan")),
    lambda: _campaign(bound=float("nan")),
    lambda: _campaign(bound=float("inf")),
    lambda: _campaign(tol=float("nan")),
    lambda: _campaign(frak_p=float("nan")),
    lambda: _campaign(frak_p=-1.5),
    lambda: _campaign(sigma=float("inf")),
], ids=["lux-tol-nan", "lux-tol-inf", "classical-q-nan", "classical-q-inf", "mixed-frak_p-nan",
        "campaign-bound-nan", "campaign-bound-inf", "campaign-tol-nan", "campaign-frak_p-nan",
        "campaign-frak_p-negative", "campaign-sigma-inf"])
def test_non_finite_or_negative_parameters_are_rejected(build):
    with pytest.raises(ValueError, match="positive and finite"):
        build()


def _lifted_exponent_undefined():
    # 1/4 - sigma/3 < 0 at the default sigma = 1
    cfg = dataclasses.replace(default_campaign_config("riesz_potential", 1, refinement_levels=1),
                              exponent_specs=(("constant", (4.0,)),))
    return evaluate_element(cfg, 0, 0)


def _field_file_with_resolution(tmp_path, resolution):
    # the first axis entry of the table starts after the 32-byte header
    path = tmp_path / "f.vlpf"
    write_field(ScalarField(np.zeros(4), line(4)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:32] + resolution.to_bytes(4, "little") + blob[36:])
    return read_field(path)


@pytest.mark.parametrize("build, match", [
    (lambda tmp: _lifted_exponent_undefined(), "lifted exponent undefined"),
    (lambda tmp: _field_file_with_resolution(tmp, 1), "resolution must be at least 2"),
], ids=["campaign-lifted-exponent", "field-file-grid"])
def test_undefined_exponents_and_stored_grids_are_refused(build, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        build(tmp_path)


def _long_line_exponent():
    # 1000 points: more pairs than the budgets below, so pairs are sampled
    return make_exponent("constant", (2.0,), GridSpec(1, (1.0,), (1000,)))


def _solve_document(tmp_path, **keys):
    return main(["solve", "--config",
                 write_json(tmp_path / "s.json", dict(small_solver_doc(), **keys))])


@pytest.mark.parametrize("build, name", [
    (lambda tmp: GridSpec(1, (1.0,), (16.7,)), "resolution"),
    (lambda tmp: TimeGrid(1.0, 8.9), "steps"),
    (lambda tmp: grid_from_doc({"dimension": 3.5, "extents": [1.0] * 3,
                                "resolution": [4] * 3}), "dimension"),
    (lambda tmp: build_campaign_config({"target": "holder", "refinement_levels": 2.9}),
     "refinement_levels"),
    (lambda tmp: build_campaign_config({"target": "holder", "corpus_size": 2.5}),
     "corpus_size"),
    (lambda tmp: build_campaign_config({"target": "holder", "seed": 0.5}), "seed"),
    (lambda tmp: build_solver_config(dict(small_solver_doc(), steps=8.5)), "steps"),
    (lambda tmp: build_solver_config(dict(small_solver_doc(), max_iters=2.5)), "max_iters"),
    (lambda tmp: build_solver_config(dict(small_solver_doc(), u0={"seed": 3.5})), "seed"),
    (lambda tmp: build_solver_config(
        dict(small_solver_doc(), force={"kind": "antisymmetric-tensor", "seed": 1.5})), "seed"),
    (lambda tmp: _solve_document(tmp, trials=2.5), "trials"),
    (lambda tmp: _solve_document(tmp, estimate_seed=0.5), "estimate_seed"),
    (lambda tmp: dataclasses.replace(build_solver_config(small_solver_doc()), max_iters=2.5),
     "max_iters"),
    (lambda tmp: picard_solve(build_solver_config(small_solver_doc()), trials=2.5), "trials"),
    (lambda tmp: _campaign(corpus_size=2.5), "corpus_size"),
    # a 24^3 grid is not nested in the 16^3 one it would refine
    (lambda tmp: GridSpec(3, (1.0,) * 3, (16,) * 3).refine(1.5), "refinement factor"),
    (lambda tmp: GridSpec(3, (1.0,) * 3, (16,) * 3).refine(2.5), "refinement factor"),
    (lambda tmp: log_holder_constants(_long_line_exponent(), pair_budget=2.5), "pair_budget"),
    (lambda tmp: log_holder_constants(_long_line_exponent(), seed=0.5), "seed"),
], ids=["grid-resolution", "time-steps", "grid-doc-dimension", "campaign-levels",
        "campaign-corpus_size", "campaign-seed", "solver-steps", "solver-max_iters",
        "solver-u0-seed", "solver-force-seed", "cli-trials", "cli-estimate_seed",
        "config-max_iters", "estimate-trials", "config-corpus_size", "grid-refine-1.5",
        "grid-refine-2.5", "holder-pair_budget", "holder-seed"])
def test_non_integral_counts_are_refused(build, name, tmp_path, capsys):
    try:
        rc = build(tmp_path)
    except ValueError as exc:
        message = str(exc)
    else:
        # the command line reports the refusal and exits with 2
        assert rc == 2
        message = capsys.readouterr().err
    assert f"{name} must be an integer" in message


def test_integral_float_counts_are_accepted():
    assert GridSpec(1, (1.0,), (16.0,)).resolution == (16,)
    assert TimeGrid(1.0, 8.0).steps == 8
    assert GridSpec(3, (1.0,) * 3, (16,) * 3).refine(2.0).resolution == (32,) * 3
    p = _long_line_exponent()
    assert log_holder_constants(p, pair_budget=1000.0, seed=3.0) == \
        log_holder_constants(p, pair_budget=1000, seed=3)
    cfg = build_campaign_config({"target": "holder", "refinement_levels": 2.0,
                                 "corpus_size": 3.0})
    assert (cfg.refinement_levels, cfg.corpus_size) == (2, 3)
    assert type(cfg.corpus_size) is int


class TestCampaignConfig:
    def test_validation_rejects_malformed_configs(self):
        good = default_campaign_config("holder")
        with pytest.raises(ValueError, match="unknown campaign target"):
            dataclasses.replace(good, target="frobnicate")
        with pytest.raises(ValueError, match="at least 1"):
            dataclasses.replace(good, corpus_size=0)
        with pytest.raises(ValueError, match="at least 1 grid"):
            dataclasses.replace(good, grids=())
        with pytest.raises(ValueError, match="positive"):
            dataclasses.replace(good, bound=0.0)
        with pytest.raises(ValueError, match="unknown corpus kind"):
            dataclasses.replace(good, corpus_kind="chirps")
        assert dataclasses.replace(good, grids=good.grids[:2]).refinement_levels == 2
        with pytest.raises(ValueError, match="exponent spec"):
            dataclasses.replace(good, exponent_specs=())

    def test_a_ladder_too_large_for_ram_fails_before_allocating(self, monkeypatch, capsys):
        # maximal's sixth level is a 512^3 grid: its five corpus fields, their
        # stacked copy, |f| and the output stack hold 4 * 5 * 512^3 float64s.
        # Only the configs are built here, never a level
        import tracemalloc
        need = 4 * 5 * 8 * 512**3
        monkeypatch.setattr(campaigns, "_physical_ram", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\(512, 512, 512\) grid") as info:
                default_campaign_config("maximal", refinement_levels=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert f"at least {need} bytes" in str(info.value)
        assert f"{need - 1} bytes of RAM" in str(info.value)
        assert main(["campaign", "--target", "maximal", "--levels", "6"]) == 2
        assert "(512, 512, 512) grid" in capsys.readouterr().err
        # the same levels on a coarser base grid fit, and so does the ladder
        # at exactly the RAM
        base = {"dimension": 3, "extents": [8.0] * 3, "resolution": [4] * 3}
        doc = {"target": "maximal", "refinement_levels": 6, "base_grid": base}
        assert build_campaign_config(doc).grids[-1].resolution == (128,) * 3
        monkeypatch.setattr(campaigns, "_physical_ram", lambda: need)
        cfg = default_campaign_config("maximal", refinement_levels=6)
        assert cfg.grids[-1].resolution == (512,) * 3

    def test_defaults_build_for_every_target(self):
        for target in TARGETS:
            cfg = default_campaign_config(target)
            assert cfg.target == target
            assert len(cfg.grids) == cfg.refinement_levels == 3
        with pytest.raises(ValueError, match="unknown campaign target"):
            default_campaign_config("frobnicate")

    def test_refinement_ladder_doubles_resolution(self):
        for target in ("holder", "maximal", "grad_heat"):
            cfg = default_campaign_config(target)
            for lo, hi in zip(cfg.grids, cfg.grids[1:]):
                assert hi.resolution == tuple(2 * r for r in lo.resolution)
                assert hi.extents == lo.extents
                assert hi.origin == lo.origin


class TestCampaignRuns:
    def _holder_unit_config(self):
        # conjugate constant exponents on an indicator square the field,
        # so both sides of the product bound coincide
        return CampaignConfig(
            target="holder", corpus_size=1, seed=5, grids=(line(),),
            exponent_specs=(("constant", (2.0,)), ("constant", (2.0,))),
            bound=4.0, corpus_kind="indicator-union",
            tol=1e-10)

    def test_equality_case_lands_on_ratio_one(self):
        report = run_campaign(self._holder_unit_config())
        assert report.passed
        assert abs(report.observed_max_ratio - 1.0) <= 1e-9

    def test_report_fields_are_internally_consistent(self):
        cfg = default_campaign_config("holder", corpus_size=3, refinement_levels=2)
        report = run_campaign(cfg)
        assert len(report.ratios) == 2
        assert all(len(row) == 3 for row in report.ratios)
        assert report.per_level_max == tuple(max(row) for row in report.ratios)
        assert report.observed_max_ratio == max(report.per_level_max)
        worst = report.worst_case
        assert report.ratios[worst.level][worst.element] == worst.ratio
        assert worst.ratio == report.observed_max_ratio
        assert report.passed == (report.observed_max_ratio <= report.bound)
        assert report.statement

    def test_worst_case_replays_to_the_same_number(self):
        cfg = default_campaign_config("holder", corpus_size=3, refinement_levels=2)
        report = run_campaign(cfg)
        assert replay_worst_case(cfg, report.worst_case) == report.worst_case.ratio

    @pytest.mark.parametrize("target", ["maximal", "proposition1", "radial_majorant"])
    def test_single_evaluations_repeat_the_level_stack(self, target):
        # a run applies the operator to each level's corpus as one stack, a
        # replay to a stack of one; both must give the same bits
        cfg = default_campaign_config(target, corpus_size=2, refinement_levels=2)
        report = run_campaign(cfg)
        assert replay_worst_case(cfg, report.worst_case) == report.worst_case.ratio
        for level, row in enumerate(report.ratios):
            assert [evaluate_element(cfg, level, i) for i in range(2)] == list(row)

    def test_runs_are_deterministic(self):
        cfg = default_campaign_config("lemma_unit_norm", corpus_size=4,
                                      refinement_levels=2)
        assert run_campaign(cfg) == run_campaign(cfg)

    def test_element_coordinates_are_checked(self):
        cfg = self._holder_unit_config()
        with pytest.raises(IndexError, match="ladder"):
            evaluate_element(cfg, 5, 0)
        with pytest.raises(IndexError, match="corpus"):
            evaluate_element(cfg, 0, 99)

    def test_failures_carry_their_coordinates(self):
        # both exponents 1.5 push the product exponent below one
        cfg = CampaignConfig(
            target="holder", corpus_size=1, seed=5, grids=(line(),),
            exponent_specs=(("constant", (1.5,)),), bound=4.0,
            corpus_kind="indicator-union")
        with pytest.raises(CampaignElementError,
                           match="target holder, level 0, element 0"):
            run_campaign(cfg)
        # a failure of the stacked operator names its level
        cube = GridSpec(3, (4.0,) * 3, (8,) * 3, TRUNCATED, (-2.0,) * 3)
        cfg = CampaignConfig(
            target="proposition1", corpus_size=2, seed=5, grids=(cube,),
            exponent_specs=(("constant", (1.5,)),), bound=10.0,
            sigma=3.0)
        with pytest.raises(CampaignElementError, match="target proposition1, level 0: order"):
            run_campaign(cfg)

    def test_scan_targets_pass_at_defaults(self):
        for target in ("grad_heat", "lemma_unit_norm"):
            report = run_campaign(default_campaign_config(target))
            assert report.passed, target
            assert report.observed_max_ratio <= report.bound


class TestReports:
    def test_campaign_json_round_trip(self, campaign_report, tmp_path):
        path = tmp_path / "r.json"
        emit_report(campaign_report, path)
        assert parse_report(path) == report_to_record(campaign_report)

    def test_solver_json_round_trip(self, solver_result, tmp_path):
        path = tmp_path / "s.json"
        emit_report(solver_result, path, "json")
        record = parse_report(path)
        assert record == report_to_record(solver_result)
        assert record["kind"] == "solver"
        assert record["schema"] == SCHEMA

    def test_campaign_csv_has_one_row_per_evaluation(self, campaign_report,
                                                     tmp_path):
        path = tmp_path / "r.csv"
        emit_report(campaign_report, path, "csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["target", "level", "element", "ratio"]
        ratios = campaign_report.ratios
        assert len(rows) == 1 + sum(len(row) for row in ratios)
        for row in rows[1:]:
            assert row[0] == campaign_report.target
            level, element = int(row[1]), int(row[2])
            assert float(row[3]) == ratios[level][element]

    def test_solver_csv_tracks_the_iterates(self, solver_result, tmp_path):
        path = tmp_path / "s.csv"
        emit_report(solver_result, path, "csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "E_norm", "increment_norm", "residual"]
        norms = solver_result.iterates_norms
        increments = solver_result.increments
        assert len(rows) == 1 + len(norms)
        assert rows[1][2] == ""
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert float(row[1]) == norms[i]
            if i > 0:
                assert float(row[2]) == increments[i - 1]
        assert float(rows[-1][3]) == solver_result.residual

    def test_only_reports_and_results_make_records(self):
        for obj in ({"schema": SCHEMA, "kind": "campaign"}, 3.5):
            with pytest.raises(TypeError, match="cannot build a report record"):
                report_to_record(obj)

    def test_unusable_requests_are_rejected(self, campaign_report, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(campaign_report, tmp_path / "r.yaml", "yaml")

    def test_io_failures_carry_the_path(self, campaign_report, tmp_path):
        missing_dir = tmp_path / "nope" / "r.json"
        with pytest.raises(ReportIOError, match="cannot write"):
            emit_report(campaign_report, missing_dir)
        with pytest.raises(ReportIOError, match="cannot read"):
            parse_report(tmp_path / "absent.json")

    def test_foreign_documents_are_rejected(self, tmp_path):
        path = write_json(tmp_path / "alien.json", {"schema": "other/9"})
        with pytest.raises(ValueError, match="not a"):
            parse_report(path)


class TestConfigDocuments:
    def test_grid_document_round_trip(self):
        doc = {"dimension": 3, "extents": [6.0, 8.0, 10.0],
               "resolution": [4, 6, 8], "topology": PERIODIC,
               "origin": [-3.0, 1.0, -5.0]}
        expected = GridSpec(3, (6.0, 8.0, 10.0), (4, 6, 8), PERIODIC,
                            (-3.0, 1.0, -5.0))
        assert grid_from_doc(doc) == expected

    def test_grid_document_defaults(self):
        g = grid_from_doc({"dimension": 1, "extents": [4.0], "resolution": [16]})
        assert g.topology == TRUNCATED
        assert g.origin == (0.0,)
        with pytest.raises(ValueError, match="topology must be one of"):
            grid_from_doc({"dimension": 1, "extents": [4.0], "resolution": [16],
                           "topology": "moebius"})

    def test_exponent_document(self):
        g = line(64)
        p = exponent_from_doc({"family": "radial-log", "params": [2.5, 0.5]}, g)
        direct = make_exponent("radial-log", (2.5, 0.5), g)
        assert np.array_equal(p.samples, direct.samples)
        assert p.p_infinity == direct.p_infinity

    def test_campaign_document_replaces_default_keys(self):
        cfg = build_campaign_config({"target": "holder", "corpus_size": 2,
                                     "bound": 9.0, "seed": 3})
        assert cfg.corpus_size == 2
        assert cfg.bound == 9.0
        assert cfg.seed == 3
        assert cfg.refinement_levels == 3
        assert cfg.corpus_kind == "smooth-decaying"

    def test_campaign_document_replaces_the_exponent_specs(self):
        doc = {"target": "holder", "exponent_specs": [["constant", [3.0]],
                                                      ["radial-log", [2.5, 0.5]]]}
        cfg = build_campaign_config(doc)
        assert cfg.exponent_specs == (("constant", (3.0,)), ("radial-log", (2.5, 0.5)))
        assert default_campaign_config("holder").exponent_specs != cfg.exponent_specs

    def test_flag_overrides_beat_the_document(self):
        doc = {"target": "holder", "corpus_size": 2, "seed": 3}
        cfg = build_campaign_config(doc, {"corpus_size": 5, "seed": None})
        assert cfg.corpus_size == 5
        assert cfg.seed == 3

    def test_campaign_document_base_grid_builds_a_ladder(self):
        doc = {"target": "maximal", "refinement_levels": 2,
               "base_grid": {"dimension": 3, "extents": [8.0] * 3,
                             "resolution": [8] * 3, "origin": [-4.0] * 3}}
        cfg = build_campaign_config(doc)
        assert cfg.refinement_levels == 2
        assert cfg.grids[0].resolution == (8, 8, 8)
        assert cfg.grids[1].resolution == (16, 16, 16)
        with pytest.raises(ValueError, match="target"):
            build_campaign_config({"corpus_size": 2})

    def test_campaign_document_grids_must_match_its_levels(self):
        grid = {"dimension": 1, "extents": [8.0], "resolution": [64], "origin": [-4.0]}
        doc = {"target": "holder", "grids": [grid, grid]}
        assert build_campaign_config(doc).refinement_levels == 2
        assert build_campaign_config(dict(doc, refinement_levels=2)).refinement_levels == 2
        with pytest.raises(ValueError, match="2 grids for 3 refinement levels"):
            build_campaign_config(dict(doc, refinement_levels=3))
        with pytest.raises(ValueError, match="at least 1 grid"):
            build_campaign_config({"target": "holder", "refinement_levels": 0})

    def test_solver_document_builds_a_runnable_config(self):
        doc = small_solver_doc()
        cfg = build_solver_config(doc)
        assert cfg.regime == "thm1"
        assert cfg.tg.T == 0.25 and cfg.tg.steps == 8
        grid = grid_from_doc(doc["grid"])
        assert cfg.p.grid == grid
        # the config projects the committed data, so compare after projection
        seeded = leray_project(generate_corpus("divergence-free", 1, grid, 3)[0],
                               make_workspace(grid)) * 0.05
        for built, expected in zip(cfg.u0.components, seeded.components):
            assert np.allclose(built.values, expected.values, rtol=0.0,
                               atol=1e-15)
        assert build_solver_config(doc, {"max_iters": 4}).max_iters == 4

    def test_time_regime_puts_the_exponent_on_the_horizon(self):
        doc = small_solver_doc()
        doc.update({"regime": "thm2", "T": 1.0, "steps": 16, "q": 10.0,
                    "p": {"family": "constant", "params": [3.0]}})
        cfg = build_solver_config(doc)
        assert cfg.p.grid == GridSpec(1, (1.0,), (16,), TRUNCATED, (0.0,))

    def test_initial_field_from_component_files(self, tmp_path):
        g = torus(8)
        u = generate_corpus("divergence-free", 1, g, 4)[0]
        paths = []
        for m, comp in enumerate(u.components):
            path = tmp_path / f"u{m}.vlpf"
            write_field(comp, path)
            paths.append(str(path))
        doc = small_solver_doc()
        doc["u0"] = {"components_paths": paths}
        cfg = build_solver_config(doc)
        projected = leray_project(u, make_workspace(g))
        for built, expected in zip(cfg.u0.components, projected.components):
            assert built.values.tobytes() == expected.values.tobytes()
        doc["u0"] = {"kind": "white-noise"}
        with pytest.raises(ValueError, match="unknown initial-field kind"):
            build_solver_config(doc)

    def test_force_documents(self):
        doc = small_solver_doc()
        doc["force"] = {"kind": "antisymmetric-tensor", "seed": 6,
                        "amplitude": 0.3}
        cfg = build_solver_config(doc)
        grid = grid_from_doc(doc["grid"])
        direct = antisymmetric_tensor_field(grid, 6, 0.3)
        ((field, modulation),) = cfg.force_spec.modes
        assert np.array_equal(field.values,
                              tensor_divergence(direct, make_workspace(grid)).values)
        assert np.array_equal(modulation, np.ones(cfg.tg.steps + 1))

        doc["force"] = {"kind": "modulated-divergence-free", "seed": 6,
                        "amplitude": 0.3, "omega": 2.0}
        cfg = build_solver_config(doc)
        sampled = cfg.force_spec
        assert sampled.data.shape == (9, 3, 8, 8, 8)
        shape_field = generate_corpus("divergence-free", 1, grid, 6)[0]
        t3 = cfg.tg.nodes[3]
        expected = 0.3 * np.cos(2.0 * t3) * shape_field.components[1].values
        assert np.array_equal(sampled.data[3, 1], expected)

        doc["force"] = {"kind": "constant-wind"}
        with pytest.raises(ValueError, match="unknown force kind"):
            build_solver_config(doc)


class TestCli:
    def _indicator_field(self, tmp_path):
        # 512 of 2048 cells lie left of 0.5, so the level set has measure 1/2
        g = GridSpec(1, (4.0,), (2048,), TRUNCATED, (0.0,))
        x = g.coords()[0]
        f = ScalarField(np.where(x < 0.5, 3.7, 0.0), g)
        path = tmp_path / "f.vlpf"
        write_field(f, path)
        return g, str(path)

    def test_norm_command_prints_the_norm(self, tmp_path, capsys):
        g, field_path = self._indicator_field(tmp_path)
        exp_path = write_json(tmp_path / "p.json",
                              {"family": "constant", "params": [2.0]})
        assert main(["norm", "--field", field_path, "--exponent", exp_path]) == 0
        out = capsys.readouterr().out
        assert "kind=luxemburg" in out
        assert abs(float(out.split()[0]) - 3.7 * 0.5 ** 0.5) <= 2e-8

        rc = main(["norm", "--field", field_path, "--exponent", exp_path,
                   "--mixed", "4.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kind=mixed" in out
        assert abs(float(out.split()[0]) - 3.7 * 0.5 ** 0.25) <= 1e-9

    def test_norm_accepts_stored_exponent_samples(self, tmp_path, capsys):
        g, field_path = self._indicator_field(tmp_path)
        exp_path = tmp_path / "p.vlpf"
        write_exponent(make_exponent("constant", (2.0,), g), exp_path)
        assert main(["norm", "--field", field_path,
                     "--exponent", str(exp_path)]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert abs(value - 3.7 * 0.5 ** 0.5) <= 2e-8

    def test_norm_grid_mismatch_is_a_usage_error(self, tmp_path, capsys):
        _, field_path = self._indicator_field(tmp_path)
        exp_path = tmp_path / "q.vlpf"
        write_exponent(make_exponent("constant", (2.0,), line(64)), exp_path)
        assert main(["norm", "--field", field_path,
                     "--exponent", str(exp_path)]) == 2
        assert "different grids" in capsys.readouterr().err

    def test_uncertifiable_norm_tolerance_is_a_usage_error(self, tmp_path, capsys):
        _, field_path = self._indicator_field(tmp_path)
        exp_path = write_json(tmp_path / "p.json",
                              {"family": "constant", "params": [2.0]})
        assert main(["norm", "--field", field_path, "--exponent", exp_path,
                     "--tol", "1e-15"]) == 0
        capsys.readouterr()
        assert main(["norm", "--field", field_path, "--exponent", exp_path,
                     "--tol", "1e-17"]) == 2
        assert capsys.readouterr().err == \
            "varns: could not certify the norm to relative tolerance 1e-17\n"

    def test_campaign_command_reports_pass_and_fail(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        rc = main(["campaign", "--target", "lemma_unit_norm",
                   "--corpus-size", "4", "--levels", "2",
                   "--out", str(out_path), "--csv", str(csv_path)])
        assert rc == 0
        assert "[PASS]" in capsys.readouterr().out
        record = parse_report(out_path)
        assert record["kind"] == "campaign" and record["passed"]
        assert csv_path.exists()

        rc = main(["campaign", "--target", "lemma_unit_norm",
                   "--corpus-size", "2", "--levels", "1", "--bound", "1e-6"])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_verify_command_reads_documents(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "v.json",
                              {"target": "grad_heat", "corpus_size": 3,
                               "refinement_levels": 2})
        assert main(["verify", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main(["verify", "--config", cfg_path, "--bound", "1e-9"]) == 1
        capsys.readouterr()

    def test_usage_errors_exit_with_two(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "none.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["verify", "--config", str(bad)]) == 2
        no_target = write_json(tmp_path / "nt.json", {"corpus_size": 2})
        assert main(["verify", "--config", no_target]) == 2
        assert main(["norm", "--field", str(tmp_path / "no.vlpf"),
                     "--exponent", str(tmp_path / "no.json")]) == 2
        assert "varns:" in capsys.readouterr().err

    def test_solve_command_runs_and_reports(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "s.json", small_solver_doc())
        out_path = tmp_path / "s_out.json"
        csv_path = tmp_path / "s.csv"
        rc = main(["solve", "--config", cfg_path,
                   "--out", str(out_path), "--csv", str(csv_path)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("converged=True")
        record = parse_report(out_path)
        assert record["kind"] == "solver"
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(record["iterates_norms"])

    def test_solve_gate_failure_exits_with_one(self, tmp_path, capsys):
        doc = small_solver_doc(amplitude=1000.0, c_b=10.0)
        cfg_path = write_json(tmp_path / "big.json", doc)
        assert main(["solve", "--config", cfg_path]) == 1
        assert "varns:" in capsys.readouterr().err

    def test_thread_cap_parses_the_environment(self, monkeypatch):
        monkeypatch.setenv("VARNS_THREADS", "4")
        assert worker_count() == 4
        for bad in ("abc", "0", "-2", "1.5"):
            monkeypatch.setenv("VARNS_THREADS", bad)
            with pytest.raises(ValueError, match=repr(bad)):
                worker_count()
        monkeypatch.delenv("VARNS_THREADS")
        assert worker_count() == 1
