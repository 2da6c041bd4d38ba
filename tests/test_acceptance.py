"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Each test prints ``criterion NN [PASS|FAIL] ...`` on the live terminal and
then asserts.  The slow pieces (the inequality campaigns and the coarse
fixed-point run) are computed once in module fixtures; the determinism
check at the end recomputes them from scratch and compares bit for bit.
Runs are single-threaded unless VARNS_THREADS says otherwise.
"""
from __future__ import annotations

import numpy as np
import pytest

from varns import (
    ExponentField,
    GridSpec,
    PERIODIC,
    ScalarField,
    SpaceTimeField,
    TimeGrid,
    TRUNCATED,
    VectorField,
    classical_norm,
    divergence,
    heat_convolve,
    leray_project,
    luxemburg_norm,
    make_exponent,
    make_workspace,
    modular,
    riesz_potential_direct,
    riesz_transform,
    unit_function_norm,
)
from varns.harness import default_campaign_config, generate_corpus, run_campaign
from varns.mild_solver import (
    SolverConfig,
    estimate_bilinear_constant,
    norm_E_thm1,
    picard_solve,
    smallness_check,
)

CAMPAIGN_TARGETS = ("holder", "duality", "maximal", "riesz_potential",
                    "proposition1", "radial_majorant", "embedding")


def _verdict(capsys, number, label, problems):
    flag = "FAIL" if problems else "PASS"
    with capsys.disabled():
        print(f"criterion {number:02d} [{flag}] {label}")
    assert not problems, f"criterion {number:02d}: " + "; ".join(problems)


def line(res):
    return GridSpec(1, (40.0,), (res,), TRUNCATED, (-20.0,))


def torus(res):
    return GridSpec(3, (2.0 * np.pi,) * 3, (res,) * 3, PERIODIC)


def two_mode(grid, amplitude):
    # a pair of transverse single-frequency modes; their mutual transport
    # does not cancel, so the quadratic term is actually exercised
    zero = np.zeros(grid.shape)
    c0 = np.broadcast_to(amplitude * np.cos(grid.coords()[0]), grid.shape).copy()
    c1 = np.broadcast_to(amplitude * np.cos(grid.coords()[1]), grid.shape).copy()
    return VectorField.from_arrays([zero, c0, c1], grid)


def thm1_fixed_point_config(grid, tg, amplitude):
    p = make_exponent("radial-log", (2.5, 0.5), grid)
    return SolverConfig("thm1", p, None, 3.0, 1e-8, 20, 1e-8,
                        two_mode(grid, amplitude), None, tg)


@pytest.fixture(scope="module")
def campaign_reports():
    return {target: run_campaign(default_campaign_config(target))
            for target in CAMPAIGN_TARGETS}


@pytest.fixture(scope="module")
def fixed_point_bundle():
    """Calibrated small-data run on the 32^3 torus over a unit horizon."""
    grid, tg = torus(32), TimeGrid(1.0, 64)
    ws = make_workspace(grid)
    p = make_exponent("radial-log", (2.5, 0.5), grid)
    c_b = estimate_bilinear_constant("thm1", p, None, tg, ws, trials=3, seed=0)
    unit_cfg = thm1_fixed_point_config(grid, tg, 1.0)
    delta_unit = smallness_check(unit_cfg, c_b).delta
    # data norm scales linearly with amplitude, so this pins 4*c_b*delta at 1/2
    amplitude = 0.5 / (4.0 * c_b * delta_unit)
    result = picard_solve(thm1_fixed_point_config(grid, tg, amplitude), c_b=c_b)
    return {"grid": grid, "tg": tg, "p": p, "c_b": c_b,
            "amplitude": amplitude, "result": result}


def test_criterion_01_luxemburg_matches_classical_norms(capsys):
    g = line(1024)
    corpus = generate_corpus("smooth-decaying", 200, g, seed=1)
    problems = []
    worst = 0.0
    for value in (1.5, 2.0, 3.0, 6.0):
        p = make_exponent("constant", (value,), g)
        for f in corpus:
            reference = classical_norm(f, value)
            got = luxemburg_norm(f, p, 1e-8).value
            worst = max(worst, abs(got - reference) / reference)
    if worst > 1e-6:
        problems.append(f"worst relative gap {worst:.3e} exceeds 1e-6")
    _verdict(capsys, 1, f"norms of 200 fields at four constant exponents, "
             f"worst relative gap {worst:.1e}", problems)


def test_criterion_02_norm_axioms_hold_in_bulk(capsys):
    g = line(256)
    fields = (generate_corpus("smooth-decaying", 400, g, 10)
              + generate_corpus("plane-wave-mix", 300, g, 11)
              + generate_corpus("indicator-union", 300, g, 12))
    exponents = [make_exponent("radial-log", (2.5, 0.5), g),
                 make_exponent("gaussian-bump", (2.2, 0.7), g)]
    scales = [17.0, -1.3, 0.04]
    tol = 1e-8
    unit_violations = homogeneity_violations = triangle_violations = 0
    last_by_exponent = [None, None]
    for i, f in enumerate(fields):
        p = exponents[i % 2]
        n = luxemburg_norm(f, p, tol).value
        if n == 0.0:
            continue
        if abs(modular(ScalarField(f.values / n, g), p) - 1.0) > 1e-6:
            unit_violations += 1
        c = scales[i % 3]
        scaled = luxemburg_norm(ScalarField(c * f.values, g), p, tol).value
        if abs(scaled - abs(c) * n) > tol * (1.0 + abs(c)) + 1e-12:
            homogeneity_violations += 1
        if last_by_exponent[i % 2] is not None:
            f_prev, n_prev = last_by_exponent[i % 2]
            joint = luxemburg_norm(ScalarField(f.values + f_prev.values, g),
                                   p, tol).value
            if joint > n + n_prev + 3.0 * tol:
                triangle_violations += 1
        last_by_exponent[i % 2] = (f, n)
    problems = []
    for name, count in (("unit-ball", unit_violations),
                        ("homogeneity", homogeneity_violations),
                        ("triangle", triangle_violations)):
        if count:
            problems.append(f"{count} {name} violations")
    _verdict(capsys, 2, "unit-ball, homogeneity and triangle checks over "
             "1000 fields with variable exponents", problems)


def test_criterion_03_unit_function_norm_brackets(capsys):
    problems = []
    for T in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        gT = GridSpec(1, (T,), (2048,), TRUNCATED, (0.0,))
        for value in (1.5, 2.0, 3.0, 6.0):
            p = make_exponent("constant", (value,), gT)
            ratio = unit_function_norm(T, p).value / T ** (1.0 / value)
            if not 1.0 / 1.01 <= ratio <= 1.01:
                problems.append(f"constant p={value}, T={T}: ratio {ratio:.6f}")
    families = [("radial-log", (2.0, 0.5)), ("gaussian-bump", (1.8, 0.6)),
                ("sinusoidal", (2.5, 0.8)), ("gaussian-bump", (3.0, 0.5)),
                ("radial-log", (1.6, 0.4))]
    for i, T in enumerate(np.geomspace(0.125, 8.0, 20)):
        T = float(T)
        gT = GridSpec(1, (T,), (2048,), TRUNCATED, (0.0,))
        tag, params = families[i % 5]
        p = make_exponent(tag, params, gT)
        n = unit_function_norm(T, p).value
        ends = (T ** (1.0 / p.p_minus), T ** (1.0 / p.p_plus))
        if not min(ends) / 2.0 <= n <= 2.0 * max(ends):
            problems.append(f"variable case {i} (T={T:.3f}): {n:.6f} "
                            f"outside [{min(ends):.6f}/2, 2*{max(ends):.6f}]")
    _verdict(capsys, 3, "unit-function norm inside horizon-power brackets, "
             "28 constant and 20 variable cases", problems)


def test_criterion_04_spectral_identities(capsys):
    g = torus(32)
    ws = make_workspace(g)
    corpus = generate_corpus("plane-wave-mix", 6, g, seed=21)
    problems = []

    for k, f in enumerate(corpus[:3]):
        total = sum(riesz_transform(riesz_transform(f, j, ws), j, ws).values
                    for j in range(3))
        target = -(f.values - np.mean(f.values))
        defect = np.max(np.abs(total - target)) / np.max(np.abs(target))
        if defect > 1e-12:
            problems.append(f"transform composition #{k}: {defect:.2e}")

    u = VectorField.from_arrays([corpus[3].values, corpus[4].values,
                                 corpus[5].values], g)
    pu = leray_project(u, ws)
    ppu = leray_project(pu, ws)
    scale = max(np.max(np.abs(c.values)) for c in pu.components)
    idem = max(np.max(np.abs(a.values - b.values))
               for a, b in zip(ppu.components, pu.components)) / scale
    if idem > 1e-12:
        problems.append(f"projection idempotence: {idem:.2e}")
    div_defect = np.max(np.abs(divergence(pu, ws).values)) / scale
    if div_defect > 1e-12:
        problems.append(f"projected divergence: {div_defect:.2e}")

    f = corpus[0]
    chained = heat_convolve(heat_convolve(f, 0.3, ws), 0.7, ws)
    direct = heat_convolve(f, 1.0, ws)
    semigroup = np.max(np.abs(chained.values - direct.values)) \
        / np.max(np.abs(direct.values))
    if semigroup > 1e-12:
        problems.append(f"heat composition: {semigroup:.2e}")

    _verdict(capsys, 4, "transform composition, projection, divergence and "
             "heat semigroup at 32^3", problems)


def test_criterion_05_fractional_integral_references(capsys):
    problems = []
    g1 = GridSpec(1, (4.0,), (8192,), TRUNCATED, (0.0,))
    x = g1.coords()[0]
    f1 = ScalarField(np.where(x < 1.0, 1.0, 0.0), g1)
    probe = int(np.argmin(np.abs(x - 2.0)))
    expected = 2.0 * (np.sqrt(2.0) - 1.0)
    gap_1d = abs(riesz_potential_direct(f1, 0.5).values[probe] - expected)
    if gap_1d > 1e-4:
        problems.append(f"interval case off by {gap_1d:.2e}")

    g3 = GridSpec(3, (24.0,) * 3, (32,) * 3, TRUNCATED, (-12.0,) * 3)
    rng = np.random.default_rng(42)
    centers = rng.uniform(-2.2, 2.2, (3, 3))
    widths = rng.uniform(2.4, 3.0, 3)
    amps = rng.uniform(0.4, 1.0, 3)

    def bumps_on(grid):
        coords = grid.coords()
        out = np.zeros(grid.shape)
        for k in range(3):
            r2 = sum((coords[a] - centers[k][a]) ** 2 for a in range(3))
            out += amps[k] * np.exp(-r2 / widths[k] ** 2)
        return out

    potential = riesz_potential_direct(ScalarField(bumps_on(g3), g3), 2.0)
    fine = g3.refine(2)
    fine_values = bumps_on(fine)
    fine_coords = fine.coords()
    worst = 0.0
    for ijk in rng.integers(8, 24, (20, 3)):
        point = [g3.coords()[a].ravel()[ijk[a]] for a in range(3)]
        d2 = sum((fine_coords[a] - point[a]) ** 2 for a in range(3))
        # probes sit at coarse midpoints, never at fine ones, so the
        # refined Riemann sum needs no singular-cell treatment
        reference = fine.cell_volume * float(
            np.sum(np.abs(fine_values) * d2 ** -0.5))
        worst = max(worst, abs(potential.values[tuple(ijk)] - reference)
                    / reference)
    if worst > 1e-3:
        problems.append(f"worst relative gap {worst:.3e} at 20 probes")
    _verdict(capsys, 5, f"fractional integral vs closed form (gap "
             f"{gap_1d:.1e}) and refined quadrature (gap {worst:.1e})",
             problems)


def test_criterion_06_inequality_campaigns(capsys, campaign_reports):
    problems = []
    for target, report in campaign_reports.items():
        if not report.passed:
            problems.append(f"{target}: max ratio {report.observed_max_ratio:.4f} "
                            f"exceeds bound {report.bound}")
        for lo, hi in zip(report.per_level_max, report.per_level_max[1:]):
            drift = abs(hi - lo) / lo
            if drift > 0.10:
                problems.append(f"{target}: level drift {drift:.3f}")
    _verdict(capsys, 6, f"{len(campaign_reports)} campaigns within bounds, "
             "drift under 10% across two refinements", problems)


def test_criterion_07_heat_limit_exactness(capsys):
    grid, tg = torus(24), TimeGrid(0.5, 32)
    p = make_exponent("radial-log", (2.5, 0.5), grid)
    u0 = generate_corpus("divergence-free", 1, grid, 5)[0] * 0.4
    cfg = SolverConfig("thm1", p, None, 3.0, 1e-9, 20, 1e-8, u0, None, tg)
    result = picard_solve(cfg, c_b=0.05, disable_bilinear=True)
    ws = make_workspace(grid)
    frames = np.empty_like(result.final.data)
    for k, t in enumerate(tg.nodes):
        flowed = heat_convolve(cfg.u0, float(t), ws)
        for m in range(3):
            frames[k, m] = flowed.components[m].values
    gap = norm_E_thm1(SpaceTimeField(result.final.data - frames, tg, grid),
                      p, 3.0).value
    problems = [] if gap <= 1e-10 else [f"energy-norm gap {gap:.2e}"]
    _verdict(capsys, 7, f"transport disabled reproduces the heat flow "
             f"(gap {gap:.1e})", problems)


def test_criterion_08_small_data_fixed_point(capsys, fixed_point_bundle):
    bundle = fixed_point_bundle
    result = bundle["result"]
    problems = []
    gate = 4.0 * bundle["c_b"] * result.smallness.delta
    if gate > 0.5 * (1.0 + 1e-6):
        problems.append(f"calibration landed at 4*c_b*delta = {gate:.6f}")
    if not result.converged or len(result.increments) > 12:
        problems.append(f"converged={result.converged} in "
                        f"{len(result.increments)} iterates")
    if result.residual > 1e-6:
        problems.append(f"residual {result.residual:.2e}")
    if result.contraction_estimate is None or result.contraction_estimate >= 1.0:
        problems.append(f"contraction {result.contraction_estimate}")
    cap = 2.0 * result.smallness.delta + 3e-6
    if result.iterates_norms[-1] > cap:
        problems.append(f"final norm {result.iterates_norms[-1]:.6f} > {cap:.6f}")

    reference = picard_solve(
        thm1_fixed_point_config(torus(64), TimeGrid(1.0, 128),
                                bundle["amplitude"]),
        c_b=bundle["c_b"])
    restricted = reference.final.data[::2, :, ::2, ::2, ::2]
    gap_field = SpaceTimeField(result.final.data - restricted,
                               bundle["tg"], bundle["grid"])
    rel = norm_E_thm1(gap_field, bundle["p"], 3.0).value \
        / norm_E_thm1(result.final, bundle["p"], 3.0).value
    if rel > 1e-3:
        problems.append(f"doubled-resolution reference differs by {rel:.2e}")
    _verdict(capsys, 8, f"calibrated fixed point: {len(result.increments)} "
             f"iterates, contraction {result.contraction_estimate:.3f}, "
             f"reference gap {rel:.1e}", problems)


def test_criterion_09_time_exponent_regime(capsys):
    grid, tg = torus(16), TimeGrid(1.0, 16)
    p_grid = GridSpec(1, (1.0,), (16,), TRUNCATED, (0.0,))
    t_mid = p_grid.coords()[0]
    p = ExponentField(3.0 + np.sin(t_mid) ** 2, p_grid)
    ws = make_workspace(grid)
    c_b = estimate_bilinear_constant("thm2", p, 10.0, tg, ws, trials=3, seed=0)

    def config(amplitude):
        return SolverConfig("thm2", p, 10.0, 3.0, 1e-9, 20, 1e-8,
                            two_mode(grid, amplitude), None, tg)

    problems = []
    result = picard_solve(config(0.05), c_b=c_b)
    if not result.smallness.passed:
        problems.append("smallness gate rejected small data")
    if not result.converged or result.residual > 1e-6:
        problems.append(f"converged={result.converged}, "
                        f"residual {result.residual:.2e}")
    horizons = []
    for amplitude in (0.05, 0.5, 5.0, 50.0, 500.0):
        verdict = smallness_check(config(amplitude), c_b)
        horizons.append(0.0 if verdict.admissible_T is None
                        else verdict.admissible_T)
    if any(a < b for a, b in zip(horizons, horizons[1:])):
        problems.append(f"admissible horizons not monotone: {horizons}")
    _verdict(capsys, 9, f"time-exponent regime converges and admissible "
             f"horizons fall with amplitude {horizons}", problems)


def test_criterion_10_reruns_are_bit_identical(capsys, campaign_reports,
                                               fixed_point_bundle):
    problems = []
    for target, first in campaign_reports.items():
        if run_campaign(default_campaign_config(target)) != first:
            problems.append(f"campaign {target} drifted")

    bundle = fixed_point_bundle
    first = bundle["result"]
    again = picard_solve(
        thm1_fixed_point_config(bundle["grid"], bundle["tg"],
                                bundle["amplitude"]),
        c_b=bundle["c_b"])
    if again.final.data.tobytes() != first.final.data.tobytes():
        problems.append("solution fields differ")
    if again.iterates_norms != first.iterates_norms \
            or again.increments != first.increments:
        problems.append("iterate histories differ")
    if again.residual != first.residual \
            or again.contraction_estimate != first.contraction_estimate \
            or again.divergence_defect != first.divergence_defect:
        problems.append("scalar diagnostics differ")
    if again.smallness != first.smallness:
        problems.append("smallness verdicts differ")
    _verdict(capsys, 10, "campaigns and the fixed-point run reproduce "
             "bit-identically", problems)
