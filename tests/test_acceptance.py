"""Acceptance criteria A1-A8.

Each test prints one summary line (visible with pytest -s or in captured
output on failure) and asserts the criterion at its stated tolerance and
runtime budget. A5/A6 share one pair of 50-seed batches at guidance scale 10
on the reference system.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from cfgctrl.cli import main as cli_main
from cfgctrl.config import ControllerSpec, SamplerSpec, load_config, with_seed
from cfgctrl.control_lab import PerturbedDynamics, corridor_sweep, simulate_sliding, stability_corridor
from cfgctrl.flow_systems import default_bandwidth, marginal_velocity, mc_velocity_oracle
from cfgctrl.guidance import SlidingState, apg_combine, cfg_combine, cfg_zero_star_combine, smc_step
from cfgctrl.metrics import (
    audit_surface_series,
    chi_mean,
    fit_gaussian,
    line_residual,
    mahalanobis,
    phase_plane,
    quality_report,
    w2_gaussian,
)
from cfgctrl.numerics import Rng
from cfgctrl.sampler import run_batch
from cfgctrl.config import build_system, ComponentSpec, ExperimentConfig, SystemSpec

from conftest import REFERENCE_CONFIG, draw_probe


def report(line: str) -> None:
    print(line)


@pytest.fixture(scope="module")
def reference():
    cfg = load_config(str(REFERENCE_CONFIG))
    return cfg, build_system(cfg.system)


@pytest.fixture(scope="module")
def high_scale_runs(reference):
    """Shared 50-seed batches at w=10: plain proportional vs sliding-mode."""
    cfg, system = reference
    sampler = SamplerSpec("euler", 64, 50, 501, False, 1e-4)
    cfg_plain = replace(cfg, controller=ControllerSpec("cfg", {"w": 10.0}), sampler=sampler)
    cfg_smc = replace(
        cfg,
        controller=ControllerSpec("smc", {"w": 10.0, "lambda": 6.0, "k": 0.1, "boundary_layer": 0.0}),
        sampler=sampler,
    )
    t0 = time.time()
    res_plain = run_batch(cfg_plain)
    res_smc = run_batch(cfg_smc)
    elapsed = time.time() - t0
    assert res_plain.n_divergent == 0 and res_smc.n_divergent == 0
    return system, res_plain, res_smc, elapsed


def test_a1_controller_identities():
    t0 = time.time()
    rng = Rng(1001)
    max_err = 0.0
    for _ in range(1000):
        v_c, v_u = rng.standard_normal((2, 4))
        w = float(1.0 + 9.0 * rng.uniform())

        both = cfg_combine(v_c, v_u, w) - ((1.0 - w) * v_u + w * v_c)
        max_err = max(max_err, float(np.abs(both).max()))

        apg_gap = apg_combine(v_c, v_u, w, 1.0) - cfg_combine(v_c, v_u, w)
        max_err = max(max_err, float(np.abs(apg_gap).max()))

        s_star = np.dot(v_c, v_u) / np.dot(v_u, v_u)
        residual = v_c - s_star * v_u
        ortho = abs(np.dot(residual, v_u)) / (np.linalg.norm(v_c) * np.linalg.norm(v_u))
        max_err = max(max_err, ortho)
        # the combine must reproduce the same rescaling
        czs_gap = cfg_zero_star_combine(v_c, v_u, w) - (s_star * v_u + w * residual)
        max_err = max(max_err, float(np.abs(czs_gap).max()))

        v_smc, _, _ = smc_step(v_c, v_u, SlidingState(), w=w, lam=6.0, k=0.0)
        smc_gap = v_smc - cfg_combine(v_c, v_u, w)
        max_err = max(max_err, float(np.abs(smc_gap).max()))
    elapsed = time.time() - t0
    ok = max_err <= 1e-12 and elapsed < 1.0
    report(f"A1 (identities): {'PASS' if ok else 'FAIL'} - max deviation {max_err:.2e} over 1000 inputs, {elapsed:.2f}s")
    assert max_err <= 1e-12
    assert elapsed < 1.0


def test_a2_oracle_equivalence(reference):
    _, system = reference
    t0 = time.time()
    probe_rng = Rng(2024, 1)
    within = 0
    for i in range(100):
        cond = "right" if i % 2 == 0 else None
        x, tau = draw_probe(probe_rng, system, cond)
        v = marginal_velocity(system, x, tau, cond)
        est, se = mc_velocity_oracle(system, x, tau, cond, 200_000, default_bandwidth(tau), Rng(9000, i))
        if (np.abs(est - v) <= 3.0 * se).all():
            within += 1
    elapsed = time.time() - t0
    ok = within >= 95 and elapsed < 120.0
    report(f"A2 (oracle equivalence): {'PASS' if ok else 'FAIL'} - {within}/100 probes within 3 SE, {elapsed:.1f}s")
    assert within >= 95
    assert elapsed < 120.0


def test_a3_finite_time_theorem():
    t0 = time.time()
    rng = Rng(777)
    drift_kinds = ["constant", "sinusoidal", "noise"]
    gain_kinds = ["zero", "rotation", "seeded"]
    n_within_bound = 0
    total_violations = 0
    for i in range(50):
        dim = 1 + (i % 2)
        w = 3.0 + 5.0 * float(rng.uniform())
        delta = 0.1 + 0.4 * float(rng.uniform())
        rho = 0.15 * w / np.sqrt(dim) * float(rng.uniform())
        phi = w - rho * np.sqrt(dim)
        eta_target = max(0.4, delta) + 1.6 * float(rng.uniform())
        k = (delta + eta_target) / phi
        s0_norm = 1.0 + 4.0 * float(rng.uniform())
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        dyn = PerturbedDynamics(
            dim=dim, w=w, delta=delta, rho=rho, k=k, dt=0.002, s0=s0_norm * direction,
            drift=drift_kinds[i % 3], gain_deviation=gain_kinds[i % 3], seed=1000 + i,
        )
        steps = int(np.ceil(s0_norm / (k * phi - delta) / dyn.dt * 1.2)) + 10
        rep = simulate_sliding(dyn, steps)
        assert rep.gain_condition_met
        assert rep.reached
        if rep.reach_step * dyn.dt <= rep.bound_time * 1.05:
            n_within_bound += 1
        violations, _ = audit_surface_series(rep.s_norms, rep.band)
        total_violations += violations
    elapsed = time.time() - t0
    ok = n_within_bound == 50 and total_violations == 0 and elapsed < 30.0
    report(
        f"A3 (finite-time theorem): {'PASS' if ok else 'FAIL'} - {n_within_bound}/50 within 1.05x bound, "
        f"{total_violations} energy violations, {elapsed:.1f}s"
    )
    assert n_within_bound == 50
    assert total_violations == 0
    assert elapsed < 30.0


def test_a4_stability_corridor():
    t0 = time.time()
    template = PerturbedDynamics(
        dim=1, w=5.0, delta=0.5, rho=0.0, k=1.0, dt=0.02, s0=np.array([2.0]),
        drift="constant", gain_deviation="zero", seed=3,
    )
    k_min, k_max = stability_corridor(template.delta, template.w, 2.0, template.dt)
    below = [0.25 * k_min, 0.5 * k_min]
    inside = [3.0 * k_min, 10.0 * k_min, 30.0 * k_min]
    far = 10.0 * k_max
    rows = corridor_sweep(template, below + inside + [far], 800)

    below_ok = all(not row.reached for row in rows[:2])
    inside_ok = all(
        row.reached and row.residual_band <= 1.5 * template.dt * template.w * row.k
        for row in rows[2:5]
    )
    quantum = template.dt * template.w * far
    far_row = rows[5]
    far_ok = far_row.reached and abs(far_row.osc_amplitude - quantum) <= 0.2 * quantum
    elapsed = time.time() - t0
    ok = below_ok and inside_ok and far_ok and elapsed < 30.0
    report(
        f"A4 (stability corridor): {'PASS' if ok else 'FAIL'} - below:{'non-convergent' if below_ok else 'BAD'}, "
        f"inside residuals ok:{inside_ok}, oscillation {far_row.osc_amplitude:.3f} vs quantum {quantum:.3f}, {elapsed:.1f}s"
    )
    assert below_ok
    assert inside_ok
    assert far_ok
    assert elapsed < 30.0


def test_a5_high_scale_robustness(high_scale_runs):
    system, res_plain, res_smc, run_time = high_scale_runs
    t0 = time.time()
    target_mean, target_cov = system.mixture_moments("right")
    over_plain = mahalanobis(res_plain.finals, target_mean, target_cov) - chi_mean(system.dim)
    over_smc = mahalanobis(res_smc.finals, target_mean, target_cov) - chi_mean(system.dim)
    t_test = scipy.stats.ttest_rel(over_plain, over_smc, alternative="greater")
    align_plain = quality_report(res_plain, system, "right").alignment
    align_smc = quality_report(res_smc, system, "right").alignment
    elapsed = run_time + time.time() - t0

    lower = over_smc.mean() < over_plain.mean()
    significant = t_test.pvalue < 0.05
    aligned = abs(align_smc - align_plain) <= 0.02
    ok = lower and significant and aligned and elapsed < 300.0
    report(
        f"A5 (high-scale robustness): {'PASS' if ok else 'FAIL'} - oversaturation smc {over_smc.mean():.3f} "
        f"vs cfg {over_plain.mean():.3f} (paired p={t_test.pvalue:.2e}), alignment gap "
        f"{abs(align_smc - align_plain):.2e}, {elapsed:.1f}s"
    )
    assert lower
    assert significant
    assert aligned
    assert elapsed < 300.0


def test_a6_phase_plane(high_scale_runs):
    _, res_plain, res_smc, run_time = high_scale_runs
    t0 = time.time()
    lam = 6.0
    resid_plain = np.array([line_residual(phase_plane(t), -lam) for t in res_plain.traces])
    resid_smc = np.array([line_residual(phase_plane(t), -lam) for t in res_smc.traces])
    elapsed = run_time + time.time() - t0
    lower = resid_smc.mean() < resid_plain.mean()
    paired = scipy.stats.ttest_rel(resid_plain, resid_smc, alternative="greater")
    ok = lower and elapsed < 300.0
    report(
        f"A6 (phase plane): {'PASS' if ok else 'FAIL'} - mean residual smc {resid_smc.mean():.4f} "
        f"vs cfg {resid_plain.mean():.4f} (paired p={paired.pvalue:.2e}), {elapsed:.1f}s"
    )
    assert lower
    assert elapsed < 300.0


def test_a7_sampling_correctness():
    t0 = time.time()
    system_spec = SystemSpec(
        dimension=2,
        components=(ComponentSpec(1.0, (1.5, -0.5), "diag", (1.0, 1.0)),),
        conditions={"only": (0,)},
        target="only",
    )
    cfg = ExperimentConfig(
        system=system_spec,
        controller=ControllerSpec("cfg", {"w": 1.0}),
        sampler=SamplerSpec("heun", 200, 2000, 11, False, 1e-4),
    )
    result = run_batch(cfg)
    fit = fit_gaussian(result.finals)
    w2 = w2_gaussian(fit.mean, fit.cov, np.array([1.5, -0.5]), np.eye(2))
    elapsed = time.time() - t0
    ok = w2 <= 0.1 and result.n_divergent == 0 and elapsed < 60.0
    report(f"A7 (sampling correctness): {'PASS' if ok else 'FAIL'} - W2 {w2:.4f} <= 0.1, {elapsed:.1f}s")
    assert result.n_divergent == 0
    assert w2 <= 0.1
    assert elapsed < 60.0


def test_a8_determinism(tmp_path):
    t0 = time.time()
    raw = json.loads(REFERENCE_CONFIG.read_text())
    raw["sampler"]["trajectories"] = 20
    raw["sweep"] = {"parameter": "k", "values": [0.1, 0.4]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))

    identical = True
    for command in (["run"], ["sweep"], ["compare", "--controllers", "cfg,smc"]):
        out_a = tmp_path / command[0] / "a"
        out_b = tmp_path / command[0] / "b"
        for out in (out_a, out_b):
            code = cli_main([command[0], "--config", str(cfg_path), "--out", str(out), *command[1:]])
            assert code == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        identical &= names_a == names_b
        for name in names_a:
            identical &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    for out in (tmp_path / "synth" / "a", tmp_path / "synth" / "b"):
        assert cli_main(["synth", "--k", "0.5", "--seed", "12", "--out", str(out)]) == 0
    for name in sorted(p.name for p in (tmp_path / "synth" / "a").iterdir()):
        identical &= (tmp_path / "synth" / "a" / name).read_bytes() == (tmp_path / "synth" / "b" / name).read_bytes()
    elapsed = time.time() - t0
    report(f"A8 (determinism): {'PASS' if identical else 'FAIL'} - run/sweep/compare/synth byte-identical, {elapsed:.1f}s")
    assert identical
