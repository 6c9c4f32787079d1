"""Sampling-based validation machinery and its statistical contracts."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mc_arelab import montecarlo
from mc_arelab.channel import ChannelSummary, summarize
from mc_arelab.config import MC_MODES, SystemConfig, map_chunks
from mc_arelab.detection import IuiSpectrum, optimal_threshold
from mc_arelab.errors import ParameterError
from mc_arelab.montecarlo import CHUNK, _draw_iui, run
from mc_arelab.perf import error_curves

from oracles import atom_decision_curves
from stochastic import ber_failures


@pytest.fixture(scope="module")
def default_summary():
    config = SystemConfig()
    return summarize(config.params(), config.geometry(), config.layout())


@pytest.fixture(scope="module")
def default_run(default_summary):
    return run(default_summary, 200_000, seed=1)


@pytest.fixture(scope="module")
def semi_analytic_run(default_summary):
    return run(default_summary, 200_000, seed=1, mode="semi-analytic")


def analytic_ber(summary, result):
    """Exact BER of every row of ``result``, and the optimal threshold."""
    theta_opt = optimal_threshold(summary.mu_s, summary.cbar, summary.mu_n)
    p, q = error_curves(len(result.per_threshold_ber) - 1, summary.mu_s, summary.cbar, summary.mu_n)
    return 0.5 * (p + q), theta_opt


class TestRun:
    def test_same_seed_reproduces_everything(self, default_summary, default_run):
        again = run(default_summary, 200_000, seed=1)
        assert again == default_run

    def test_different_seed_differs(self, default_summary, default_run):
        other = run(default_summary, 200_000, seed=2)
        assert other.best.ber != default_run.best.ber

    def test_thread_count_does_not_change_results(self, monkeypatch, default_summary, default_run):
        # a ring of 130 draws three words of activity bits per sample
        wide = ChannelSummary(t_m=1.0, mu_s=20.0, cbar=((0.9, 6), (0.04, 130)), mu_n=1.0)
        serial = run(default_summary, 250_000, seed=1, mode="semi-analytic")
        wide_serial = {mode: run(wide, 250_000, seed=3, mode=mode) for mode in MC_MODES}
        monkeypatch.setenv("MC_ARELAB_THREADS", "4")
        assert run(default_summary, 200_000, seed=1) == default_run
        assert run(default_summary, 250_000, seed=1, mode="semi-analytic") == serial
        for mode in MC_MODES:
            assert run(wide, 250_000, seed=3, mode=mode) == wide_serial[mode]

    def test_silent_transmitter_always_misses(self):
        summary = ChannelSummary(t_m=1.0, mu_s=0.0, cbar=(), mu_n=0.0)
        result = run(summary, 10_000, theta_max=5, seed=3)
        for row in result.per_threshold_ber[1:]:
            assert row.q_hat == 1.0
            assert row.p_hat == 0.0
            assert row.ber == pytest.approx(0.5, abs=0.02)

    def test_consistent_with_analytic_error_rates(self, default_summary, default_run):
        # family-wise false-failure probability 1e-3
        ber, theta_opt = analytic_ber(default_summary, default_run)
        assert ber_failures(default_run, ber, theta_opt, 1e-3) == []

    @pytest.mark.parametrize("mode", MC_MODES)
    @pytest.mark.parametrize("scale", [0.9, 1.1])
    def test_ber_check_rejects_a_scaled_analytic_curve(
        self, default_summary, default_run, semi_analytic_run, mode, scale
    ):
        # both checks, at the stated alpha, see a 10% error in the reference curve
        result = default_run if mode == "stochastic" else semi_analytic_run
        ber, theta_opt = analytic_ber(default_summary, result)
        assert len(ber_failures(result, scale * ber, theta_opt, 1e-3)) == 2

    def test_best_is_curve_minimum(self, default_run):
        bers = [row.ber for row in default_run.per_threshold_ber]
        assert default_run.best.ber == min(bers)
        assert default_run.best.theta == int(np.argmin(bers))

    def test_stderr_formula(self, default_run):
        row = default_run.per_threshold_ber[10]
        want = math.sqrt(row.ber * (1.0 - row.ber) / default_run.samples)
        assert row.stderr == pytest.approx(want, rel=1e-12)

    def test_curve_is_u_shaped_around_the_optimum(self, default_summary, default_run):
        theta_opt = optimal_threshold(default_summary.mu_s, default_summary.cbar, default_summary.mu_n)
        bers = [row.ber for row in default_run.per_threshold_ber]
        assert abs(default_run.best.theta - theta_opt) <= 1
        for theta in range(5, theta_opt - 2):
            assert bers[theta] > bers[theta + 1]
        for theta in range(theta_opt + 2, 40):
            assert bers[theta] < bers[theta + 1]

    def test_more_interferers_never_lower_the_best_threshold(self):
        best = {}
        for n in (6, 36):
            config = SystemConfig(n_interferers=n)
            summary = summarize(config.params(), config.geometry(), config.layout())
            best[n] = run(summary, 200_000, seed=5).best.theta
        assert best[6] <= best[36] + 1

    def test_wide_truncation_keeps_the_best_threshold(self):
        # 1260 sites exceed what exact atom enumeration can handle, so the
        # widest point of the truncation chain is sampled instead
        exact = {}
        for n in (6, 36):
            config = SystemConfig(n_interferers=n)
            summary = summarize(config.params(), config.geometry(), config.layout())
            exact[n] = optimal_threshold(summary.mu_s, summary.cbar, summary.mu_n)
        config = SystemConfig(n_interferers=1260)
        summary = summarize(config.params(), config.geometry(), config.layout())
        sampled = run(summary, 400_000, theta_max=60, seed=5).best.theta
        assert exact[6] <= exact[36] <= sampled + 1

    def test_semi_analytic_mode_matches_analytic_curve(self, default_summary, semi_analytic_run):
        # family-wise false-failure probability 1e-3
        ber, theta_opt = analytic_ber(default_summary, semi_analytic_run)
        assert ber_failures(semi_analytic_run, ber, theta_opt, 1e-3) == []
        assert semi_analytic_run.best.theta == pytest.approx(theta_opt, abs=1)

    def test_semi_analytic_memory_does_not_grow_with_the_chunk_count(self, monkeypatch, default_summary):
        # 40 chunks fold into one running tally, so the peak is about one
        # chunk's draw plus the tally, whatever the sample count
        monkeypatch.delenv("MC_ARELAB_THREADS", raising=False)
        tracemalloc.start()
        try:
            run(default_summary, 4_000_000, seed=5, mode="semi-analytic")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_semi_analytic_curves_match_atom_oracle(self):
        # 144 possible interference values, more than the 81 atoms of one
        # pmf block at theta_max = 400; with mu_n = 0, the all-silent draw
        # is a lam = 0 atom of the bit-0 mixture
        summary = ChannelSummary(
            t_m=1.0, mu_s=3.0, cbar=((0.31, 2), (0.17, 2), (0.053, 3), (0.0219, 3)), mu_n=0.0
        )
        samples, theta_max, seed = 30_000, 400, 4
        result = run(summary, samples, theta_max=theta_max, seed=seed, mode="semi-analytic")

        draws = np.concatenate(
            list(map_chunks(lambda size, rng: _draw_iui(summary.cbar, size, rng), samples, CHUNK, seed))
        )
        values, tallies = np.unique(draws, return_counts=True)
        assert values.size > 2**15 // theta_max
        assert values[0] == 0.0
        mixture = IuiSpectrum(values=values, log_weights=np.log(tallies / samples), ring_basis=())
        q_ref, p_ref = atom_decision_curves(theta_max, summary.mu_s, mixture, summary.mu_n)
        p_hat = np.array([row.p_hat for row in result.per_threshold_ber])
        q_hat = np.array([row.q_hat for row in result.per_threshold_ber])
        np.testing.assert_allclose(p_hat, p_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(q_hat, q_ref, rtol=0.0, atol=1e-12)

    def test_rejects_bad_arguments(self, default_summary):
        with pytest.raises(ParameterError):
            run(default_summary, 0)
        with pytest.raises(ParameterError):
            run(default_summary, 100, theta_max=0)
        with pytest.raises(ParameterError):
            run(default_summary, 100, mode="exact")
        for seed in (-1, 1.5, True):
            with pytest.raises(ParameterError, match="seed"):
                run(default_summary, 100, seed=seed)
        for samples, theta_max, name in ((100.0, 5, "samples"), (100, True, "theta_max")):
            with pytest.raises(ParameterError, match=name):
                run(default_summary, samples, theta_max=theta_max)
        # NumPy integers are integers
        assert run(default_summary, np.int64(100), theta_max=np.int64(5)) == run(default_summary, 100, theta_max=5)

    @pytest.mark.parametrize("mode", ["stochastic", "semi-analytic"])
    @pytest.mark.parametrize(
        "change, name",
        [
            ({"mu_s": math.nan}, "mu_s"),
            ({"mu_s": -1.0}, "mu_s"),
            ({"mu_n": math.nan}, "mu_n"),
            ({"mu_n": math.inf}, "mu_n"),
            ({"cbar": ((1.0, 6), (math.inf, 6))}, "ring 1 mean"),
            ({"cbar": ((-1.0, 6),)}, "ring 0 mean"),
            ({"cbar": ((math.nan, 6),)}, "ring 0 mean"),
            ({"cbar": ((1.0, 0),)}, "ring 0 count"),
            ({"cbar": ((1.0, 2.5),)}, "ring 0 count"),
        ],
    )
    def test_rejects_bad_summary(self, default_summary, mode, change, name):
        bad = dataclasses.replace(default_summary, **change)
        with pytest.raises(ParameterError, match=name):
            run(bad, 100, theta_max=5, mode=mode)


class TestRingSampling:
    def test_one_chunk_draws_in_block_sized_temporaries(self, default_summary):
        # the result and the ring tally are chunk-sized; every other
        # temporary is one block long
        rings = default_summary.cbar
        _draw_iui(rings, CHUNK, np.random.default_rng(3))
        tracemalloc.start()
        try:
            iui = _draw_iui(rings, CHUNK, np.random.default_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iui.nbytes == 8 * CHUNK
        assert peak < iui.nbytes + 0.7e6

    @pytest.mark.parametrize("block", [1000, CHUNK])
    def test_block_size_does_not_change_the_draws(self, monkeypatch, block):
        # a multi-word ring, and a size that no block divides
        rings = [(0.3, 6), (1.7, 130), (0.05, 64)]
        size = CHUNK - 7
        expected = _draw_iui(rings, size, np.random.default_rng(8))
        monkeypatch.setattr(montecarlo, "BLOCK", block)
        assert _draw_iui(rings, size, np.random.default_rng(8)).tobytes() == expected.tobytes()

    def test_binomial_ring_equals_bernoulli_sum(self):
        n = 100_000
        ring = _draw_iui([(1.0, 6)], n, np.random.default_rng(21)).astype(int)
        bits = np.random.default_rng(22).integers(0, 2, size=(n, 6)).sum(axis=1)
        table = np.array(
            [np.bincount(ring, minlength=7), np.bincount(bits, minlength=7)]
        )
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.01

    # one partial word, a full 64-bit word, one bit past it, several words,
    # a ring that needs a 16-bit tally, and one whose active counts pass
    # 255, where an 8-bit tally would wrap
    @pytest.mark.parametrize("count", [1, 6, 63, 64, 65, 130, 300, 600])
    def test_active_count_is_binomial_half(self, count):
        n = 50_000
        active = _draw_iui([(1.0, count)], n, np.random.default_rng(count)).astype(int)
        assert active.min() >= 0 and active.max() <= count
        observed = np.bincount(active, minlength=count + 1)
        expected = n * stats.binom.pmf(np.arange(count + 1), count, 0.5)
        # pool each tail into one bin so that every bin expects 5 draws or more
        core = np.flatnonzero(expected >= 5.0)
        lo, hi = core[0], core[-1]

        def pooled(x):
            return np.concatenate(([x[: lo + 1].sum()], x[lo + 1 : hi], [x[hi:].sum()]))

        _, p_value = stats.chisquare(pooled(observed), pooled(expected))
        assert p_value > 0.001
