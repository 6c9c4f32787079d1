"""End-to-end acceptance run: nine numbered criteria, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines alongside the test results.
"""

import dataclasses
import math
import time

import numpy as np
from scipy import integrate

from mc_arelab import montecarlo, perf
from mc_arelab.channel import cir, peak_time, summarize
from mc_arelab.config import SystemConfig
from mc_arelab.detection import collapse_iui, optimal_threshold, sinr_worst
from mc_arelab.gridgeom import to_cartesian
from mc_arelab.pbs import PbsConfig, simulate_cir
from mc_arelab.specfun import erf, regularized_gamma_p, regularized_gamma_q
from oracles import cir_quadrature, exhaustive_iui_spectrum
from stochastic import ber_failures, best_theta_failures, max_chernoff_score


def _report(index: int, label: str, failures: list, elapsed: float, limit: float) -> None:
    if elapsed >= limit:
        failures = failures + [f"overran the {limit:.0f}s budget ({elapsed:.1f}s)"]
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {index} ({label}): {status} [{elapsed:.1f}s]")
    assert not failures, f"criterion {index} ({label}): " + "; ".join(failures)


def _summary_for(cfg: SystemConfig):
    return summarize(
        cfg.params(),
        cfg.geometry(),
        cfg.layout(),
        k_max=cfg.k_max,
        gamma_form=cfg.gamma_form,
        search_horizon=cfg.horizon,
    )


def test_criterion_1_worst_case_sinr_constants():
    start = time.perf_counter()
    failures = []
    cases = [
        (0.2, 6, 0.276588),
        (0.2, 18, 0.175053),
        (0.2, 36, 0.163543),
        (0.5, 6, 1.726913),
    ]
    for c, n_i, want in cases:
        cfg = SystemConfig(c=c, n_interferers=n_i, gamma_form="regularized")
        summary = _summary_for(cfg)
        got = sinr_worst(summary.mu_s, sum(v * k for v, k in summary.cbar))
        if abs(got - want) / want > 1e-3:
            failures.append(f"c={c} n={n_i}: got {got:.6f}, want {want}")
    _report(1, "worst-case SINR constants", failures, time.perf_counter() - start, 5.0)


def test_criterion_2_response_quadrature_equivalence():
    start = time.perf_counter()
    failures = []
    cfg = SystemConfig()
    params, geom = cfg.params(), cfg.geometry()
    rng = np.random.default_rng(8)
    for _ in range(10):
        t = float(rng.uniform(0.5, 10.0))
        r_i = float(rng.uniform(0.0, 3.0 * cfg.c))
        got = cir(t, r_i, params, geom)
        want = cir_quadrature(t, r_i, params, geom)
        if abs(got - want) / want > 1e-8:
            failures.append(f"t={t:.3f} r={r_i:.3f}: rel err {abs(got - want) / want:.2e}")
    _report(2, "analytic response vs quadrature", failures, time.perf_counter() - start, 30.0)


def test_criterion_3_particle_ensemble_agreement():
    start = time.perf_counter()
    failures = []
    cfg = SystemConfig()
    params, geom = cfg.params(), cfg.geometry()
    layout = cfg.layout()
    t_m = peak_time(params, geom)
    sample_times = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0]
    # the record-grid point nearest each check time; particles jump straight between them
    grid = cfg.pbs_dt * cfg.pbs_record_every * np.arange(1, 1501)
    times = sorted({float(grid[np.argmin(np.abs(grid - t))]) for t in [t_m] + sample_times})
    assert len(times) == 11
    pcfg = PbsConfig(times=tuple(times), seed=1)
    # family-wise false-failure probability 1e-3 over both sites' 22 records
    for site in (0, 1):
        offset = to_cartesian(layout.kind, layout.pitch, layout.sites[site].lattice_coords)
        r_i = layout.sites[site].radial_distance
        trace = simulate_cir(params, geom, offset, pcfg)
        score, limit = max_chernoff_score(trace, pcfg, r_i, params, geom, alpha=0.5e-3)
        if score > limit:
            failures.append(f"site {site}: Chernoff score {score:.1f} > {limit:.1f}")
    _report(3, "particle ensemble vs analytic response", failures, time.perf_counter() - start, 300.0)


def test_criterion_4_threshold_behaviors():
    start = time.perf_counter()
    failures = []

    if optimal_threshold(4.07, (), 0.0) != 1:
        failures.append("interference-free noiseless threshold is not 1")

    transition = {}
    for c in (0.58, 0.66):
        cfg = SystemConfig(c=c, n_mol=10, gamma_form="regularized")
        summary = _summary_for(cfg)
        transition[c] = optimal_threshold(summary.mu_s, summary.cbar, summary.mu_n)
    if not (transition[0.58] == 2 and transition[0.66] == 1):
        failures.append(f"2-to-1 transition missing: {transition}")

    rng = np.random.default_rng(42)
    for i in range(10):
        n_rings = int(rng.integers(1, 4))
        basis = tuple(
            (float(rng.uniform(0.05, 3.0)), int(rng.integers(1, 7))) for _ in range(n_rings)
        )
        mu_s = float(rng.uniform(2.0, 40.0))
        mu_n = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0
        theta = optimal_threshold(mu_s, basis, mu_n)
        p_curve, q_curve = perf.error_curves(100, mu_s, basis, mu_n)
        curve = 0.5 * (p_curve + q_curve)
        if theta != int(np.argmin(curve)):
            failures.append(f"setup {i}: threshold {theta} != argmin {int(np.argmin(curve))}")
    _report(4, "threshold selection behaviors", failures, time.perf_counter() - start, 60.0)


def test_criterion_5_interference_collapse_exactness():
    start = time.perf_counter()
    failures = []

    def partitions(n, cap=None):
        if cap is None:
            cap = n
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    def aggregate(pairs):
        out = {}
        for value, weight in pairs:
            key = round(value, 12)
            out[key] = out.get(key, 0.0) + weight
        return sorted(out.items())

    for n in range(1, 13):
        for part in partitions(n):
            basis = tuple((0.31 + 0.47 * j, count) for j, count in enumerate(part))
            sp = collapse_iui(basis)
            want = aggregate(exhaustive_iui_spectrum(basis))
            got = aggregate(zip(sp.values.tolist(), np.exp(sp.log_weights).tolist()))
            if len(got) != len(want):
                failures.append(f"{basis}: {len(got)} atoms vs {len(want)}")
                continue
            err = max(
                max(abs(gv - wv), abs(gw - ww))
                for (gv, gw), (wv, ww) in zip(got, want)
            )
            if err > 1e-12:
                failures.append(f"{basis}: max abs err {err:.2e}")
    _report(5, "interference collapse vs exhaustive enumeration", failures, time.perf_counter() - start, 10.0)


def test_criterion_6_sampled_error_rate_consistency():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2026)
    picked = []
    while len(picked) < 10:
        cfg = SystemConfig(
            grid=str(rng.choice(["hex", "square"])),
            c=float(rng.uniform(0.25, 0.7)),
            n_mol=int(rng.integers(40, 400)),
            c_noise=float(rng.choice([0.0, 2.0, 5.0])),
            n_interferers=int(rng.choice([6, 18, 24, 36])),
        )
        report = perf.evaluate(cfg)
        if 1e-3 <= report.ber <= 0.2:
            picked.append((cfg, report))
    # the BER checks and the best-theta checks: family-wise false-failure
    # probability 1e-3 each over the 10 configurations
    for i, (cfg, report) in enumerate(picked):
        summary = _summary_for(cfg)
        result = montecarlo.run(summary, samples=100_000, theta_max=60, seed=100 + i)
        p, q = perf.error_curves(60, summary.mu_s, summary.cbar, summary.mu_n)
        ber = 0.5 * (p + q)
        failures += [f"config {i}: {line}" for line in ber_failures(result, ber, report.theta_opt, 1e-4)]
        # 10^12 samples cost no more than a few, and their bands resolve one theta
        wide = montecarlo.run(summary, samples=10**12, theta_max=60, seed=100 + i)
        failures += [f"config {i}: {line}" for line in best_theta_failures(wide, ber, report.theta_opt, 1e-4)]
        for planted in (report.theta_opt - 1, report.theta_opt + 1):
            if not best_theta_failures(dataclasses.replace(wide, best=planted), ber, report.theta_opt, 1e-4):
                failures.append(f"config {i}: the best-theta check misses a best planted at theta {planted}")
    _report(6, "sampled error rates vs analytic", failures, time.perf_counter() - start, 120.0)


def test_criterion_7_efficiency_sweep_properties():
    start = time.perf_counter()
    failures = []
    pitches = [float(v) for v in np.geomspace(0.1, 1.0, 20)]

    ares = [r.are for r in perf.sweep(SystemConfig(), "cell_pitch", pitches)]
    k = int(np.argmax(ares))
    if not (0 < k < len(ares) - 1 and ares[k] > ares[0] and ares[k] > ares[-1]):
        failures.append(f"default efficiency peak not interior (argmax {k})")

    peaks, copts = [], []
    for n in (10, 100, 1000):
        a = [r.are for r in perf.sweep(SystemConfig(n_mol=n), "cell_pitch", pitches)]
        j = int(np.argmax(a))
        peaks.append(a[j])
        copts.append(pitches[j])
    if not (peaks[0] < peaks[1] < peaks[2]):
        failures.append(f"peak efficiency not increasing in release size: {peaks}")
    if not (copts[0] > copts[1] > copts[2]):
        failures.append(f"optimal spacing not decreasing in release size: {copts}")

    noise_peaks, noise_idx = [], []
    for noise in (0.0, 5.0, 10.0):
        a = [r.are for r in perf.sweep(SystemConfig(c_noise=noise), "cell_pitch", pitches)]
        noise_peaks.append(max(a))
        noise_idx.append(int(np.argmax(a)))
    if not (noise_peaks[0] > noise_peaks[1] > noise_peaks[2]):
        failures.append(f"peak efficiency not decreasing in noise: {noise_peaks}")
    if max(noise_idx) - min(noise_idx) > 1:
        failures.append(f"optimal spacing moved under noise: indices {noise_idx}")

    areas = [float(v) for v in np.geomspace(0.01, 0.9, 20)]
    by_grid = {
        grid: max(r.are for r in perf.sweep(SystemConfig(grid=grid), "cell_area", areas))
        for grid in ("hex", "square")
    }
    if by_grid["hex"] < by_grid["square"]:
        failures.append(f"hex peak {by_grid['hex']:.4f} below square {by_grid['square']:.4f}")

    slow = perf.evaluate(SystemConfig(diff=0.005, c=0.4)).ber
    fast = perf.evaluate(SystemConfig(diff=0.02, c=0.4)).ber
    if not slow < fast:
        failures.append(f"faster diffusion did not raise the error rate: {slow} vs {fast}")
    _report(7, "efficiency sweep properties", failures, time.perf_counter() - start, 300.0)


def test_criterion_8_suboptimal_threshold_gap():
    start = time.perf_counter()
    failures = []
    gaps = {}
    for c in (0.1, 0.3, 0.5, 0.8):
        opt = perf.evaluate(SystemConfig(c=c, threshold_mode="optimal"))
        sub = perf.evaluate(SystemConfig(c=c, threshold_mode="suboptimal"))
        gaps[c] = sub.ber - opt.ber
    if not abs(gaps[0.1]) <= 1e-3:
        failures.append(f"crowded-regime gap {gaps[0.1]:.2e} above 1e-3")
    for c, gap in gaps.items():
        if gap < 0.0:
            failures.append(f"negative gap {gap:.2e} at spacing {c}")
    _report(8, "closed-form threshold gap", failures, time.perf_counter() - start, 30.0)


def test_criterion_9_special_function_suite():
    start = time.perf_counter()
    failures = []

    for a in (1, 2, 5, 10, 40):
        for x in (0.01, 0.5, 1.0, 5.0, 20.0, 80.0):
            s = regularized_gamma_p(a, x) + regularized_gamma_q(a, x)
            if abs(s - 1.0) > 1e-12:
                failures.append(f"P+Q at ({a}, {x}) off by {abs(s - 1.0):.2e}")

    for k, lam in ((0, 1.0), (5, 3.0), (20, 25.0), (90, 100.0)):
        cdf = math.fsum(
            math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1)) for j in range(k + 1)
        )
        got = regularized_gamma_q(k + 1, lam)
        if abs(got - cdf) > 1e-12 * max(cdf, 1e-300):
            failures.append(f"count CDF at (k={k}, rate={lam}) off by {abs(got - cdf):.2e}")

    for x in (0.1, 0.5, 1.0, 2.0, 3.5):
        ref, _ = integrate.quad(lambda u: 2.0 / math.sqrt(math.pi) * math.exp(-u * u), 0.0, x)
        if abs(erf(x) - ref) > 1e-10:
            failures.append(f"erf({x}) off by {abs(erf(x) - ref):.2e}")
    _report(9, "special function suite", failures, time.perf_counter() - start, 5.0)
