"""Sampling-based validation machinery and its statistical contracts."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mc_arelab import montecarlo
from mc_arelab.channel import ChannelSummary, summarize
from mc_arelab.config import MC_MODES, SystemConfig
from mc_arelab.detection import IuiSpectrum, _CountDistribution, optimal_threshold
from mc_arelab.errors import ParameterError
from mc_arelab.montecarlo import _count_tallies, _tally_tree, run
from mc_arelab.perf import error_curves
from mc_arelab.specfun import _chernoff_support, _log_factorials

from oracles import atom_decision_curves
from stochastic import ber_failures, u_shape_failures


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
    p, q = error_curves(result.ber.size - 1, summary.mu_s, summary.cbar, summary.mu_n)
    return 0.5 * (p + q), theta_opt


def assert_same_result(got, want):
    """Every field of two results equal, the arrays bit for bit and of one dtype."""
    for field in dataclasses.fields(montecarlo.McResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


class TestRun:
    def test_same_seed_reproduces_everything(self, default_summary, default_run):
        again = run(default_summary, 200_000, seed=1)
        assert_same_result(again, default_run)

    def test_different_seed_differs(self, default_summary, default_run):
        other = run(default_summary, 200_000, seed=2)
        assert other.ber[other.best] != default_run.ber[default_run.best]

    def test_reruns_at_one_seed_are_equal_for_wide_and_early_stop_rings(self, default_summary, default_run):
        # a wide ring, whose pmf takes many cells of every draw
        wide = ChannelSummary(t_m=1.0, mu_s=20.0, cbar=((0.9, 6), (0.04, 130)), mu_n=1.0)
        # 22 rings, of which the tally tree covers the first few; the rest are exact
        early = early_stop_summary()
        first = run(default_summary, 250_000, seed=1, mode="semi-analytic")
        wide_first = {mode: run(wide, 250_000, seed=3, mode=mode) for mode in MC_MODES}
        early_first = {mode: run(early, 250_000, seed=4, mode=mode) for mode in MC_MODES}
        assert_same_result(run(default_summary, 200_000, seed=1), default_run)
        assert_same_result(run(default_summary, 250_000, seed=1, mode="semi-analytic"), first)
        for mode in MC_MODES:
            assert_same_result(run(wide, 250_000, seed=3, mode=mode), wide_first[mode])
            assert_same_result(run(early, 250_000, seed=4, mode=mode), early_first[mode])

    def test_silent_transmitter_always_misses(self):
        summary = ChannelSummary(t_m=1.0, mu_s=0.0, cbar=(), mu_n=0.0)
        result = run(summary, 10_000, theta_max=5, seed=3)
        assert (result.q_hat[1:] == 1.0).all()
        assert (result.p_hat[1:] == 0.0).all()
        assert result.ber[1:] == pytest.approx(0.5, abs=0.02)

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
        bers = default_run.ber.tolist()
        assert type(default_run.best) is int
        assert default_run.ber[default_run.best] == min(bers)
        assert default_run.best == bers.index(min(bers))

    def test_stderr_formula(self, default_run):
        ber = default_run.ber[10]
        want = math.sqrt(ber * (1.0 - ber) / default_run.samples)
        assert default_run.stderr[10] == pytest.approx(want, rel=1e-12)

    def test_curve_is_u_shaped_around_the_optimum(self, default_summary, default_run):
        # family-wise false-failure probability 1e-3
        ber, theta_opt = analytic_ber(default_summary, default_run)
        failures, down, up = u_shape_failures(default_run, ber, 1e-3)
        assert failures == []
        # the checked steps cover theta = 5 to 3 short of the optimum on the
        # left, and the optimum + 1 to + 8 on the right
        assert set(range(5, theta_opt - 2)) <= set(down)
        assert set(range(theta_opt + 1, theta_opt + 9)) <= set(up)

    @pytest.mark.parametrize("offset", [-6, -3, 2, 6])
    def test_u_shape_check_sees_two_swapped_rows(self, default_summary, default_run, offset):
        ber, theta_opt = analytic_ber(default_summary, default_run)
        theta = theta_opt + offset
        rows = default_run.ber.copy()
        rows[[theta, theta + 1]] = rows[[theta + 1, theta]]
        swapped = dataclasses.replace(default_run, ber=rows)
        failures, _, _ = u_shape_failures(swapped, ber, 1e-3)
        assert len(failures) == 1 and f"theta {theta} to {theta + 1}" in failures[0]

    def test_u_shape_check_sees_a_best_row_off_the_minimum(self, default_summary, default_run):
        ber, theta_opt = analytic_ber(default_summary, default_run)
        moved = dataclasses.replace(default_run, best=theta_opt - 3)
        failures, _, _ = u_shape_failures(moved, ber, 1e-3)
        assert len(failures) == 1 and "best theta" in failures[0]

    def test_more_interferers_never_lower_the_best_threshold(self):
        best = {}
        for n in (6, 36):
            config = SystemConfig(n_interferers=n)
            summary = summarize(config.params(), config.geometry(), config.layout())
            best[n] = run(summary, 200_000, seed=5).best
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
        sampled = run(summary, 400_000, theta_max=60, seed=5).best
        assert exact[6] <= exact[36] <= sampled + 1

    def test_semi_analytic_mode_matches_analytic_curve(self, default_summary, semi_analytic_run):
        # family-wise false-failure probability 1e-3
        ber, theta_opt = analytic_ber(default_summary, semi_analytic_run)
        assert ber_failures(semi_analytic_run, ber, theta_opt, 1e-3) == []
        assert semi_analytic_run.best == pytest.approx(theta_opt, abs=1)

    def test_semi_analytic_memory_does_not_grow_with_the_sample_count(self, default_summary):
        # the tree's leaves are distinct interference states, at most the
        # 31,213 of the default rings however many samples share them
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

        values, tallies, covered = tree_leaves(summary.cbar, samples, seed)
        assert covered == len(summary.cbar) and tallies.sum() == samples
        assert values.size > 2**15 // theta_max
        assert 0.0 in values
        mixture = IuiSpectrum(values=values, log_weights=np.log(tallies / samples), ring_basis=())
        q_ref, p_ref = atom_decision_curves(theta_max, summary.mu_s, mixture, summary.mu_n)
        np.testing.assert_allclose(result.p_hat, p_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(result.q_hat, q_ref, rtol=0.0, atol=1e-12)

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
        assert_same_result(run(default_summary, np.int64(100), theta_max=np.int64(5)), run(default_summary, 100, theta_max=5))

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
    # a ring's active count is drawn by one split of the tally tree
    @staticmethod
    def active_counts(count, n, seed):
        """Tallies of the active count 0..count of one ring, over ``n`` samples."""
        values, tallies, covered = _tally_tree(np.zeros(1), np.array([n]), [(1.0, count)], np.random.default_rng(seed))
        assert covered == 1 and tallies.sum() == n
        active = values.astype(np.int64)
        assert (active == values).all() and active.min() >= 0 and active.max() <= count
        return np.bincount(active, weights=tallies, minlength=count + 1)

    def test_binomial_ring_equals_bernoulli_sum(self):
        # against the sum of 6 fair bits per sample, drawn one by one
        n = 100_000
        bits = np.random.default_rng(22).integers(0, 2, size=(n, 6)).sum(axis=1)
        table = np.array([self.active_counts(6, n, 21), np.bincount(bits, minlength=7)])
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.01

    # from one member to rings whose pmfs span hundreds of cells
    @pytest.mark.parametrize("count", [1, 6, 63, 64, 65, 130, 300, 600])
    def test_active_count_is_binomial_half(self, count):
        assert binomial_half_p_value(self.active_counts(count, 50_000, count)) > 0.001


def binomial_half_p_value(observed):
    """Chi-square p-value of active-count tallies 0..count against Binomial(count, 1/2)."""
    count = observed.size - 1
    return chi_square_p_value(observed, stats.binom.pmf(np.arange(count + 1), count, 0.5))


def chi_square_p_value(observed, pmf):
    """Chi-square p-value of tallies over the cells of ``pmf`` against it."""
    expected = observed.sum() * pmf
    # pool each tail into one bin so that every bin expects 5 draws or more
    core = np.flatnonzero(expected >= 5.0)
    lo, hi = core[0], core[-1]

    def pooled(x):
        return np.concatenate(([x[: lo + 1].sum()], x[lo + 1 : hi], [x[hi:].sum()]))

    _, p_value = stats.chisquare(pooled(observed), pooled(expected))
    return p_value


def clipped_count_law(summary, theta_max):
    """Rows b = 0, 1: P(r | b) for r < theta_max, then P(r >= theta_max | b), from the exact count pmfs."""
    counts = _CountDistribution(summary.mu_s, summary.cbar, summary.mu_n, theta_max)
    # the build may stop short of theta_max, at the support, or run past it, to the flip bound
    pmfs = np.zeros((2, theta_max))
    head = np.exp([counts.off[:theta_max], counts.on[:theta_max]])
    pmfs[:, : head.shape[1]] = head
    return np.column_stack([pmfs, np.maximum(1.0 - pmfs.sum(axis=1), 0.0)])


def early_stop_summary():
    config = SystemConfig(n_interferers=200)
    return summarize(config.params(), config.geometry(), config.layout())


def tree_leaves(rings, samples, seed):
    """(values, tallies, covered): the tally tree of a semi-analytic run, on its own substream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return _tally_tree(np.zeros(1), np.array([samples]), rings, rng)


class TestTallyTree:
    @pytest.mark.parametrize("count", [1, 12, 130, 2000])
    def test_binomial_pmf(self, count):
        pmf = montecarlo._binom_half_pmf(count)
        np.testing.assert_allclose(pmf, stats.binom.pmf(np.arange(count + 1), count, 0.5), rtol=1e-10, atol=0.0)
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("count", [5000, 100_000])
    def test_a_large_ring_pmf_is_a_multinomial_law(self, count):
        # ln k! rounds by many ulps at these counts; unscaled, the cells but
        # the last sum past 1 + 1e-12, where a multinomial draw raises
        pmf = montecarlo._binom_half_pmf(count)
        assert pmf[:-1].sum() <= 1.0
        assert np.random.default_rng(0).multinomial(10**6, pmf).sum() == 10**6
        np.testing.assert_allclose(pmf, stats.binom.pmf(np.arange(count + 1), count, 0.5), rtol=1e-8, atol=1e-300)

    def test_each_ring_marginal_is_binomial_half(self):
        # each ring's active count sits in its own 8 bits of the value, so
        # every leaf decodes exactly into its per-ring counts
        n = 50_000
        rings = [(1.0, 6), (256.0, 130), (65536.0, 12)]
        values, tallies, covered = _tally_tree(np.zeros(1), np.array([n]), rings, np.random.default_rng(5))
        assert covered == len(rings)
        assert tallies.sum() == n and tallies.min() >= 1
        codes = values.astype(np.int64)
        assert (codes == values).all()
        for shift, (_, count) in zip((0, 8, 16), rings):
            active = (codes >> shift) & 0xFF
            assert active.max() <= count
            assert binomial_half_p_value(np.bincount(active, weights=tallies, minlength=count + 1)) > 0.001

    def test_stops_before_a_ring_past_its_cell_budget(self, monkeypatch):
        # a budget of 10 cells: two leaves of a 6-member ring make 14, one
        # leaf makes 7, and the several leaves it splits into then make 14 or more
        monkeypatch.setattr(montecarlo, "TREE_CELLS", 10)
        n = 100
        rings = [(1.0, 6), (0.5, 6), (0.25, 6)]
        values, tallies, covered = _tally_tree(np.zeros(2), np.array([40, 60]), rings, np.random.default_rng(1))
        assert covered == 0 and tallies.tolist() == [40, 60]
        values, tallies, covered = _tally_tree(np.zeros(1), np.array([n]), rings, np.random.default_rng(1))
        assert covered == 1 and tallies.sum() == n

    def test_default_tree_covers_every_ring(self, default_summary):
        samples = SystemConfig().mc_samples
        rings = default_summary.cbar
        _, tallies, covered = _tally_tree(np.zeros(1), np.array([samples]), rings, np.random.default_rng(2))
        assert covered == len(rings)
        assert tallies.sum() == samples

    @pytest.mark.parametrize("samples", [SystemConfig().mc_samples, 4_000_000])
    def test_default_semi_analytic_run_neither_sorts_nor_merges(self, monkeypatch, default_summary, samples):
        # the tree covers every default ring, so no exact ring merges into
        # the leaves' mixture and no value is sorted
        def forbidden(*args, **kwargs):
            raise AssertionError("called")

        expected = run(default_summary, samples, seed=3, mode="semi-analytic")
        monkeypatch.setattr(montecarlo, "_add_rings", forbidden)
        monkeypatch.setattr(montecarlo.np, "unique", forbidden)
        monkeypatch.setattr(montecarlo.np, "argsort", forbidden)
        assert_same_result(run(default_summary, samples, seed=3, mode="semi-analytic"), expected)

    def test_a_tree_of_no_ring_gives_the_analytic_curves(self, monkeypatch, default_summary):
        # with every ring exact, the mixture is the one count pmf of the
        # analytic path, up to rounding, whatever the seed
        monkeypatch.setattr(montecarlo, "TREE_CELLS", 1)
        result = run(default_summary, 1000, seed=3, mode="semi-analytic")
        p, q = error_curves(100, default_summary.mu_s, default_summary.cbar, default_summary.mu_n)
        np.testing.assert_allclose(result.p_hat, p, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(result.q_hat, q, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("tree_cells", [montecarlo.TREE_CELLS, 1])
    def test_a_wide_theta_max_builds_the_pmfs_only_to_the_support(self, monkeypatch, default_summary, tree_cells):
        # past the support of the loudest count every pmf entry rounds to 0,
        # so the mixtures stop there, and the rows past it repeat its row,
        # whether the tree covers every ring or none
        monkeypatch.setattr(montecarlo, "TREE_CELLS", tree_cells)
        summary = default_summary
        lam_max = summary.mu_n + summary.mu_s + sum(cbar * count for cbar, count in summary.cbar)
        support = _chernoff_support(lam_max, montecarlo.UNDERFLOW_NATS)
        narrow = run(summary, 1000, theta_max=support, seed=3, mode="semi-analytic")
        lengths = []
        log_mixtures = montecarlo._log_mixtures

        def recording(lams, log_weights, counts, log_norm):
            lengths.append(counts.size)
            return log_mixtures(lams, log_weights, counts, log_norm)

        monkeypatch.setattr(montecarlo, "_log_mixtures", recording)
        wide = run(summary, 1000, theta_max=10**6, seed=3, mode="semi-analytic")
        # one mixture call builds both bit classes' pmfs
        assert len(lengths) == 1 and max(lengths) <= support
        for name in ("ber", "p_hat", "q_hat"):
            curve, head = getattr(wide, name), getattr(narrow, name)
            assert curve.size == 10**6 + 1
            assert curve[: support + 1].tobytes() == head.tobytes()
            assert (curve[support:] == head[-1]).all()

    def test_early_stop_curves_match_analytic_curve(self):
        # family-wise false-failure probability 1e-3, and a 1% error in the
        # reference curve fails both checks
        summary = early_stop_summary()
        samples, seed = 4_000_000, 3
        _, _, covered = tree_leaves(summary.cbar, samples, seed)
        assert 0 < covered < len(summary.cbar)
        result = run(summary, samples, seed=seed, mode="semi-analytic")
        ber, theta_opt = analytic_ber(summary, result)
        assert ber_failures(result, ber, theta_opt, 1e-3) == []
        for scale in (0.99, 1.01):
            assert len(ber_failures(result, scale * ber, theta_opt, 1e-3)) == 2

    def test_early_stop_memory_stays_within_the_tree_budget(self):
        # the tree holds at most TREE_CELLS cells, and the rings past it are
        # pmfs over theta_max counts, whatever the sample count
        summary = early_stop_summary()
        tracemalloc.start()
        try:
            run(summary, 4_000_000, seed=3, mode="semi-analytic")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestClippedPoisson:
    # zero, subnormal and small means, means whose pmf underflows at both
    # ends of the row, means past theta_max, and one that overflows to inf
    @pytest.mark.parametrize("lam", [0.0, 5e-324, 0.37, 12.0, 1000.0, 1e5, 2.1e5, 3e5, 1e300, math.inf])
    def test_cells_match_the_exact_clipped_law(self, lam):
        theta_max = 200_000
        first, pvals = montecarlo._clipped_poisson(lam, theta_max)
        cells = np.arange(first, first + pvals.size)
        assert pvals.size == 1 or pvals[0] > 0.0 and pvals[-1] > 0.0
        # within the 1e-12 that a multinomial draw allows
        assert pvals.sum() == pytest.approx(1.0, abs=1e-15)
        want = stats.poisson.pmf(np.arange(theta_max + 1), lam) if lam < math.inf else np.zeros(theta_max + 1)
        want[-1] = stats.poisson.sf(theta_max - 1, lam) if lam < math.inf else 1.0
        # every cell left out has no mass in a double, and the last cell takes the remainder
        outside = np.ones(theta_max + 1, bool)
        outside[cells] = False
        assert not want[outside].any()
        np.testing.assert_allclose(pvals[:-1], want[cells[:-1]], rtol=1e-9, atol=1e-300)
        assert 1.0 - pvals[:-1].sum() == pytest.approx(want[cells[-1]], rel=1e-9, abs=1e-15)


    def test_forms_log_factorials_only_in_the_chernoff_window(self, monkeypatch, default_summary):
        # at theta_max = 10^6 every Poisson term of the default summary lies
        # far below the clip, so no ln r! past its own window is formed
        asked = []
        log_factorials = _log_factorials

        def spying(j):
            asked.append((j.size, int(j.max(initial=0))))
            return log_factorials(j)

        for module in ("specfun", "montecarlo", "detection"):
            monkeypatch.setattr(f"mc_arelab.{module}._log_factorials", spying, raising=False)
        theta_max = 10**6
        run(default_summary, 100_000, theta_max=theta_max, seed=5)
        lam_max = default_summary.mu_n + default_summary.mu_s + default_summary.cbar_sum
        window = _chernoff_support(lam_max, montecarlo.UNDERFLOW_NATS)
        assert asked and window < 1000
        assert max(size for size, _ in asked) <= window + 1
        assert max(top for _, top in asked) <= window


class TestCountTallies:
    # family-wise false-failure probability of one law check, over its two
    # bit classes; a chi-square p-value is asymptotic, so every pooled bin
    # expects 5 samples or more
    ALPHA = 1e-3
    SAMPLES = 1_000_000

    @staticmethod
    def case(default_summary, name):
        """(summary, theta_max, ring): a configuration, and the ring whose mean the power gate moves."""
        if name == "defaults":
            return default_summary, 100, 0
        if name == "wide ring":
            return ChannelSummary(t_m=1.0, mu_s=20.0, cbar=((0.9, 6), (0.04, 130)), mu_n=1.0), 100, 1
        if name == "loud noise":
            # the Poisson(1000) pmf underflows to 0 below r = 71, so the noise cells start there
            return ChannelSummary(t_m=1.0, mu_s=50.0, cbar=((60.0, 6),), mu_n=1000.0), 1500, 0
        if name == "ring past the underflow":
            # the Binomial(2000, 1/2) pmf underflows to 0 below k = 198 and above 1802
            return ChannelSummary(t_m=1.0, mu_s=20.0, cbar=((0.9, 6), (0.01, 2000)), mu_n=1.0), 100, 1
        # the bulk of both classes lies past theta_max, so the clip cell carries most of the mass
        return default_summary, 10, 0

    def law_p_values(self, summary, theta_max, rings, seed=11):
        """Chi-square p-values of each class's tallies, drawn with ``rings``, against the law of ``summary``."""
        hist = _count_tallies(rings, summary.mu_s, summary.mu_n, theta_max, self.SAMPLES, np.random.default_rng(seed))
        assert hist.shape == (2, theta_max + 1) and hist.sum() == self.SAMPLES
        return [chi_square_p_value(h, pmf) for h, pmf in zip(hist, clipped_count_law(summary, theta_max))], hist

    @pytest.mark.parametrize(
        "name", ["defaults", "wide ring", "ring past the underflow", "loud noise", "clip below the bulk"]
    )
    def test_tallies_follow_the_exact_clipped_count_law(self, default_summary, name):
        summary, theta_max, _ = self.case(default_summary, name)
        p_values, hist = self.law_p_values(summary, theta_max, summary.cbar)
        assert min(p_values) > self.ALPHA / 2
        if name == "clip below the bulk":
            assert (hist[:, -1] > hist.sum(axis=1) / 2).all()

    def test_draws_in_small_blocks_keep_the_law(self, monkeypatch):
        # 50 elements hold less than one row of the 130-member ring's split
        # and of most spreads, so every draw is cut into blocks of rows
        monkeypatch.setattr(montecarlo, "DRAW_CELLS", 50)
        summary, theta_max, _ = self.case(None, "wide ring")
        p_values, _ = self.law_p_values(summary, theta_max, summary.cbar)
        assert min(p_values) > self.ALPHA / 2

    @pytest.mark.parametrize(
        "name", ["defaults", "wide ring", "ring past the underflow", "loud noise", "clip below the bulk"]
    )
    def test_law_check_sees_a_five_percent_error_in_one_ring_mean(self, default_summary, name):
        summary, theta_max, ring = self.case(default_summary, name)
        rings = list(summary.cbar)
        cbar, count = rings[ring]
        rings[ring] = (1.05 * cbar, count)
        p_values, _ = self.law_p_values(summary, theta_max, rings)
        assert max(p_values) < self.ALPHA / 2

    def test_a_trillion_samples_cost_no_more_than_a_few(self, default_summary):
        # the tallies, not the samples, are drawn: 10^12 samples fit in a
        # small fixed peak, and their BER still passes the exact binomial
        # bands (family-wise false-failure probability 1e-3), which a
        # 1e-4 relative error in the reference curve fails
        tracemalloc.start()
        try:
            result = run(default_summary, 10**12, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        ber, theta_opt = analytic_ber(default_summary, result)
        assert ber_failures(result, ber, theta_opt, 1e-3) == []
        assert len(ber_failures(result, (1.0 + 1e-4) * ber, theta_opt, 1e-3)) == 2
