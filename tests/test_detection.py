"""Interference collapse, ML decisions, and threshold computations."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mc_arelab.channel import summarize
from mc_arelab.config import SystemConfig
from mc_arelab.detection import (
    BALANCE_RECHECK,
    DetectorSpec,
    IuiSpectrum,
    _balance_bounds,
    _count_pmfs as count_pmfs,
    characterize,
    collapse_iui,
    ml_decide,
    optimal_threshold,
    sinr_worst,
    suboptimal_threshold,
    threshold_set,
)
from mc_arelab.errors import ParameterError
from mc_arelab.perf import error_curves

from oracles import (
    atom_balance,
    atom_decision_curves,
    atom_ml_decide,
    atom_optimal_threshold,
    atom_threshold_set,
    exhaustive_iui_spectrum,
)


def induced_distribution(spectrum: IuiSpectrum) -> list[tuple[float, float]]:
    """Aggregate atoms sharing the same value, like the exhaustive oracle."""
    agg: dict[float, float] = {}
    for v, lw in zip(spectrum.values, spectrum.log_weights):
        key = round(float(v), 12)
        agg[key] = agg.get(key, 0.0) + math.exp(lw)
    return sorted(agg.items())


def assert_same_distribution(spectrum, ring_basis):
    got = induced_distribution(spectrum)
    want = exhaustive_iui_spectrum(ring_basis)
    assert len(got) == len(want)
    for (gv, gw), (wv, ww) in zip(got, want):
        assert gv == pytest.approx(wv, abs=1e-12)
        assert gw == pytest.approx(ww, abs=1e-12)


class TestCollapse:
    def test_single_interferer_two_atoms(self):
        sp = collapse_iui([(2.5, 1)])
        assert induced_distribution(sp) == [
            (0.0, pytest.approx(0.5)),
            (2.5, pytest.approx(0.5)),
        ]

    def test_no_interference_single_atom(self):
        sp = collapse_iui([])
        assert sp.values.tolist() == [0.0]
        assert sp.log_weights.tolist() == [0.0]
        assert sp.cbar_sum == 0.0

    def test_ring_of_six_binomial_weights(self):
        sp = collapse_iui([(0.3, 6)])
        assert sp.values.size == 7
        dist = induced_distribution(sp)
        coeffs = [1, 6, 15, 20, 15, 6, 1]
        for k, (value, weight) in enumerate(dist):
            assert value == pytest.approx(0.3 * k, abs=1e-12)
            assert weight == pytest.approx(coeffs[k] / 64.0, abs=1e-12)

    @pytest.mark.parametrize(
        "basis",
        [
            [(0.5, 3), (1.25, 2)],
            [(0.1, 1), (0.2, 1), (0.3, 1)],
            [(2.0, 6), (0.7, 6)],
            [(0.05, 4), (1.0, 2), (3.0, 3)],
        ],
    )
    def test_matches_exhaustive_enumeration(self, basis):
        assert_same_distribution(collapse_iui(basis), basis)

    @given(
        st.lists(
            st.tuples(st.integers(1, 64), st.integers(1, 4)),
            min_size=0,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_enumeration_random(self, raw):
        basis = [(0.0625 * units, count) for units, count in raw]
        if sum(count for _, count in basis) > 12:
            basis = basis[:1]
        assert_same_distribution(collapse_iui(basis), basis)

    def test_atom_count_is_product_of_ring_sizes(self):
        sp = collapse_iui([(0.5, 3), (1.25, 2), (2.0, 4)])
        assert sp.values.size == 4 * 3 * 5

    def test_near_equal_rings_merge(self):
        sp = collapse_iui([(0.3, 2), (0.3 * (1.0 + 1e-12), 3)])
        assert sp.ring_basis == ((0.3, 5),)
        assert sp.values.size == 6

    def test_atom_cap_exceeded(self):
        basis = [(0.1 * (j + 1), 1) for j in range(21)]
        with pytest.raises(ParameterError, match="merge"):
            collapse_iui(basis)
        # the same basis fits under a raised cap
        sp = collapse_iui(basis, atom_cap=2**21)
        assert sp.values.size == 2**21

    def test_weights_normalized(self):
        sp = collapse_iui([(0.31, 6), (0.62, 12), (1.7, 5)])
        assert math.fsum(np.exp(sp.log_weights)) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_rings(self):
        with pytest.raises(ParameterError):
            collapse_iui([(-0.1, 2)])
        with pytest.raises(ParameterError):
            collapse_iui([(0.1, 0)])
        with pytest.raises(ParameterError):
            collapse_iui([(0.1, 2.5)])
        for cbar in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="ring mean"):
                collapse_iui([(cbar, 2)])


class TestSpectrumType:
    def test_cbar_sum_from_basis(self):
        sp = collapse_iui([(0.5, 3), (2.0, 2)])
        assert sp.cbar_sum == pytest.approx(5.5)
        # the largest atom is every interferer active at once
        assert sp.max_value == pytest.approx(5.5)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ParameterError, match="sum"):
            IuiSpectrum(
                values=np.array([0.0, 1.0]),
                log_weights=np.array([math.log(0.25), math.log(0.25)]),
                ring_basis=((1.0, 1),),
            )

    def test_rejects_negative_values(self):
        with pytest.raises(ParameterError):
            IuiSpectrum(
                values=np.array([-1.0, 0.0]),
                log_weights=np.array([math.log(0.5), math.log(0.5)]),
                ring_basis=((1.0, 1),),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ParameterError):
            IuiSpectrum(
                values=np.array([0.0, 1.0]),
                log_weights=np.array([0.0]),
                ring_basis=(),
            )

    def test_arrays_read_only(self):
        sp = collapse_iui([(1.0, 1)])
        with pytest.raises(ValueError):
            sp.values[0] = 5.0


def random_detection_setup(rng):
    n_rings = rng.integers(1, 4)
    basis = [
        (float(rng.uniform(0.05, 3.0)), int(rng.integers(1, 7)))
        for _ in range(n_rings)
    ]
    mu_s = float(rng.uniform(0.5, 40.0))
    mu_n = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0
    return mu_s, collapse_iui(basis), mu_n


class TestMlDecide:
    def test_zero_count_decides_zero(self):
        assert ml_decide(0, 5.0, [], 0.0) == 0

    def test_large_count_decides_one(self):
        assert ml_decide(50, 10.0, [(2.0, 1)], 1.0) == 1

    def test_rejects_negative_or_fractional_counts(self):
        with pytest.raises(ParameterError):
            ml_decide(-1, 5.0, [], 0.0)
        with pytest.raises(ParameterError):
            ml_decide(1.5, 5.0, [], 0.0)

    def test_agrees_with_threshold_rule_at_defaults(self):
        config = SystemConfig()
        summary = summarize(config.params(), config.geometry(), config.layout())
        theta = optimal_threshold(summary.mu_s, summary.cbar, summary.mu_n)
        for r in range(201):
            assert ml_decide(r, summary.mu_s, summary.cbar, summary.mu_n) == int(r >= theta)

    def test_agrees_with_threshold_rule_when_signal_dominates(self):
        config = SystemConfig(c=0.5, n_interferers=6)
        summary = summarize(config.params(), config.geometry(), config.layout())
        assert sinr_worst(summary.mu_s, summary.cbar_sum) > 1.0
        theta = optimal_threshold(summary.mu_s, summary.cbar, summary.mu_n)
        for r in range(3 * theta + 1):
            assert ml_decide(r, summary.mu_s, summary.cbar, summary.mu_n) == int(r >= theta)


class TestOptimalThreshold:
    def test_no_interference_noiseless(self):
        assert optimal_threshold(100.0, [], 0.0) == 1

    @pytest.mark.parametrize(
        "mu_s,mu_n,name",
        [
            (math.inf, 0.0, "mu_s"),
            (math.nan, 0.0, "mu_s"),
            (0.0, 0.0, "mu_s"),
            (5.0, math.nan, "mu_n"),
            (5.0, math.inf, "mu_n"),
            (5.0, -1.0, "mu_n"),
        ],
    )
    def test_rejects_bad_means(self, mu_s, mu_n, name):
        sp = collapse_iui([(0.5, 2)])
        with pytest.raises(ParameterError, match=name):
            optimal_threshold(mu_s, sp.ring_basis, mu_n)
        with pytest.raises(ParameterError, match=name):
            threshold_set(mu_s, sp.ring_basis, mu_n)
        with pytest.raises(ParameterError, match=name):
            ml_decide(3, mu_s, sp.ring_basis, mu_n)

    def test_matches_brute_force_ber_argmin(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            mu_s, sp, mu_n = random_detection_setup(rng)
            theta = optimal_threshold(mu_s, sp.ring_basis, mu_n)
            p_curve, q_curve = error_curves(100, mu_s, sp.ring_basis, mu_n)
            assert theta == int(np.argmin(0.5 * (p_curve + q_curve)))

    def test_threshold_step_down_with_growing_pitch(self):
        lo = SystemConfig(n_mol=10, c=0.58, gamma_form="regularized")
        hi = SystemConfig(n_mol=10, c=0.66, gamma_form="regularized")
        thetas = []
        for config in (lo, hi):
            summary = summarize(
                config.params(),
                config.geometry(),
                config.layout(),
                gamma_form=config.gamma_form,
            )
            thetas.append(optimal_threshold(summary.mu_s, summary.cbar, summary.mu_n))
        assert thetas == [2, 1]

    def test_monotone_in_interferer_truncation(self):
        thetas = []
        for n in (6, 18, 36):
            config = SystemConfig(n_interferers=n)
            summary = summarize(config.params(), config.geometry(), config.layout())
            thetas.append(optimal_threshold(summary.mu_s, summary.cbar, summary.mu_n))
        assert thetas == sorted(thetas)


class TestThresholdSet:
    def test_default_config_single_threshold(self):
        config = SystemConfig()
        summary = summarize(config.params(), config.geometry(), config.layout())
        ts = threshold_set(summary.mu_s, summary.cbar, summary.mu_n)
        assert len(ts) == 1
        assert ts[0] == optimal_threshold(summary.mu_s, summary.cbar, summary.mu_n)

    def test_no_interference_noiseless(self):
        assert threshold_set(100.0, [], 0.0) == [1]

    def test_contains_optimal_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mu_s, sp, mu_n = random_detection_setup(rng)
            theta = optimal_threshold(mu_s, sp.ring_basis, mu_n)
            assert theta in threshold_set(mu_s, sp.ring_basis, mu_n)


class TestSuboptimalThreshold:
    def test_unit_log_case(self):
        mu_s = 10.0 * (math.e - 1.0)
        result = suboptimal_threshold(mu_s, 20.0, 0.0)
        assert result.raw == pytest.approx(mu_s, rel=1e-12)
        assert result.theta == 18
        assert not result.degenerate

    def test_formula_arithmetic(self):
        result = suboptimal_threshold(10.0, 8.0, 1.0)
        assert result.raw == pytest.approx(10.0 / math.log(3.0), rel=1e-12)
        assert result.theta == 10

    def test_degenerate_no_denominator(self):
        result = suboptimal_threshold(5.0, 0.0, 0.0)
        assert result.theta == 1
        assert result.raw == 0.0
        assert result.degenerate


@pytest.mark.parametrize("cbar_sum", [math.nan, math.inf, -1.0, True])
@pytest.mark.parametrize(
    "call",
    [lambda cbar_sum: suboptimal_threshold(5.0, cbar_sum, 0.0), lambda cbar_sum: sinr_worst(5.0, cbar_sum)],
    ids=["suboptimal_threshold", "sinr_worst"],
)
def test_cbar_sum_must_be_finite_and_nonnegative(call, cbar_sum):
    with pytest.raises(ParameterError, match="cbar_sum"):
        call(cbar_sum)


class TestSinrWorst:
    def test_equal_means_give_one(self):
        assert sinr_worst(3.7, 3.7) == pytest.approx(1.0)

    def test_no_interference_is_infinite(self):
        assert math.isinf(sinr_worst(5.0, 0.0))

    @pytest.mark.parametrize(
        "n,expected",
        [(6, 0.276588), (18, 0.175053), (36, 0.163543)],
    )
    def test_reference_values_close_rings(self, n, expected):
        config = SystemConfig(n_interferers=n, gamma_form="regularized")
        summary = summarize(
            config.params(),
            config.geometry(),
            config.layout(),
            gamma_form="regularized",
        )
        assert sinr_worst(summary.mu_s, summary.cbar_sum) == pytest.approx(expected, rel=1e-3)

    def test_reference_value_wide_cells(self):
        config = SystemConfig(c=0.5, n_interferers=6, gamma_form="regularized")
        summary = summarize(
            config.params(),
            config.geometry(),
            config.layout(),
            gamma_form="regularized",
        )
        assert sinr_worst(summary.mu_s, summary.cbar_sum) == pytest.approx(1.726913, rel=1e-3)


class TestCharacterize:
    def test_consistent_bundle(self):
        config = SystemConfig()
        summary = summarize(config.params(), config.geometry(), config.layout())
        spec = characterize(summary.mu_s, summary.cbar, summary.mu_n)
        assert isinstance(spec, DetectorSpec)
        assert spec.theta_opt == optimal_threshold(summary.mu_s, summary.cbar, summary.mu_n)
        assert spec.theta_sub == suboptimal_threshold(summary.mu_s, summary.cbar_sum, summary.mu_n).theta
        assert spec.threshold_set_size >= 1
        assert spec.sinr_worst == pytest.approx(summary.mu_s / summary.cbar_sum)
        assert spec.cbar_sum == pytest.approx(summary.cbar_sum, rel=1e-15)

    def test_pmfs_stop_at_the_bound(self, monkeypatch):
        # detect --nmol 1000: one crossing near 145, where a count range
        # sized by the all-active mean would run to about 2,960 counts
        config = SystemConfig(n_mol=1000)
        summary = summarize(config.params(), config.geometry(), config.layout())
        lam_max = summary.mu_n + math.fsum(cbar * count for cbar, count in summary.cbar)
        bound = math.ceil(summary.mu_s / math.log1p(summary.mu_s / lam_max))
        lengths = []

        def recording(mu_s, ring_basis, mu_n, n):
            lengths.append(n)
            return count_pmfs(mu_s, ring_basis, mu_n, n)

        monkeypatch.setattr("mc_arelab.detection._count_pmfs", recording)
        spec = characterize(summary.mu_s, summary.cbar, summary.mu_n)
        assert max(lengths) <= bound + 3
        assert len(lengths) == 1
        assert spec.threshold_set_size == 1
        assert spec.theta_opt <= bound


def wide_range_setup(rng):
    """A ring basis whose means, and mu_n half the time, span 1e-3..200 log-uniformly."""

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

    basis = [(log_uniform(1e-3, 200.0), int(rng.integers(1, 3))) for _ in range(int(rng.integers(1, 4)))]
    mu_s = log_uniform(0.3, 300.0)
    mu_n = log_uniform(1e-3, 200.0) if rng.random() < 0.5 else 0.0
    return mu_s, collapse_iui(basis), mu_n


@pytest.fixture(scope="module")
def oracle_cases():
    """Random ring bases plus the default hex and square configurations."""
    rng = np.random.default_rng(2024)
    cases = [random_detection_setup(rng) for _ in range(12)]
    for grid in ("hex", "square"):
        config = SystemConfig(grid=grid)
        summary = summarize(config.params(), config.geometry(), config.layout())
        cases.append((summary.mu_s, collapse_iui(summary.cbar), summary.mu_n))
    return cases


class TestAgainstAtomOracles:
    """The count-distribution paths and the balance bounds against log-sum-exp over atoms."""

    def test_optimal_threshold_identical(self, oracle_cases):
        for mu_s, sp, mu_n in oracle_cases:
            assert optimal_threshold(mu_s, sp.ring_basis, mu_n) == atom_optimal_threshold(mu_s, sp, mu_n)

    def test_threshold_set_identical(self, oracle_cases):
        for mu_s, sp, mu_n in oracle_cases:
            assert threshold_set(mu_s, sp.ring_basis, mu_n) == atom_threshold_set(mu_s, sp, mu_n)

    def test_characterize_matches_the_single_questions(self, oracle_cases):
        # one shared count distribution answers both questions as the
        # separate entry points do
        for mu_s, sp, mu_n in oracle_cases:
            spec = characterize(mu_s, sp.ring_basis, mu_n)
            assert spec.theta_opt == optimal_threshold(mu_s, sp.ring_basis, mu_n)
            assert spec.threshold_set_size == len(threshold_set(mu_s, sp.ring_basis, mu_n))

    def test_wide_range_bases(self):
        # the oracles scan to 10 ceil(mu_s + all-active mean + mu_n) + 50,
        # far past the bound the library stops at
        rng = np.random.default_rng(77)
        several = 0
        for _ in range(100):
            mu_s, sp, mu_n = wide_range_setup(rng)
            want = atom_threshold_set(mu_s, sp, mu_n)
            assert threshold_set(mu_s, sp.ring_basis, mu_n) == want
            assert optimal_threshold(mu_s, sp.ring_basis, mu_n) == atom_optimal_threshold(mu_s, sp, mu_n)
            several += len(want) > 1
        assert several >= 25

    def test_ml_decide_identical(self, oracle_cases):
        for mu_s, sp, mu_n in oracle_cases:
            theta = optimal_threshold(mu_s, sp.ring_basis, mu_n)
            for r in range(3 * theta + 6):
                assert ml_decide(r, mu_s, sp.ring_basis, mu_n) == atom_ml_decide(r, mu_s, sp, mu_n)

    @given(
        basis=st.lists(st.tuples(st.floats(0.01, 5.0), st.integers(1, 7)), max_size=4),
        mu_s=st.floats(0.3, 100.0),
        mu_n=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        extra=st.lists(st.floats(0.0, 150.0), max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_balance_bounds_contain_the_atom_balance(self, basis, mu_s, mu_n, extra):
        # the bounds sign a scan point once they clear zero by
        # BALANCE_RECHECK, so they may miss the atom balance by rounding only
        sp = collapse_iui(basis)
        assume(mu_n > 0 or sp.max_value > 0)
        top = mu_s + sp.max_value + mu_n + 10.0
        phis = np.concatenate((0.25 * np.arange(int(top / 0.25) + 1), extra))
        off, on = count_pmfs(mu_s, sp.ring_basis, mu_n, math.ceil(phis.max()) + 2)
        lo, hi = _balance_bounds(off, on, phis)
        slack = 0.1 * BALANCE_RECHECK
        for phi, low, high in zip(phis.tolist(), lo.tolist(), hi.tolist()):
            assert low - slack <= atom_balance(phi, mu_s, sp, mu_n) <= high + slack, phi

    def test_error_curves_agree(self, oracle_cases):
        for mu_s, sp, mu_n in oracle_cases:
            p, q = error_curves(120, mu_s, sp.ring_basis, mu_n)
            q_ref, p_ref = atom_decision_curves(120, mu_s, sp, mu_n)
            np.testing.assert_allclose(p, p_ref, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(q, q_ref, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(0.5 * (p + q), 0.5 * (p_ref + q_ref), rtol=0.0, atol=1e-12)

    def test_terms_beyond_the_double_range(self):
        # at phi = 0 the all-active atom's term is e^-900 relative to the
        # largest; it dominates the balance from phi ~ 900 on. The last
        # crossing, near 948.24, has ceiling 949, just under the bound
        # phi* = 949.15: a scan ending a unit short of the bound misses it
        sp = collapse_iui([(150.0, 6), (0.01, 3)])
        got = threshold_set(100.0, sp.ring_basis, 0.0)
        assert got == atom_threshold_set(100.0, sp, 0.0, phi_max=1500.3)
        assert len(got) > 1
        assert got[-1] == 949 == math.ceil(100.0 / math.log1p(100.0 / 900.03)) - 1

    @pytest.mark.parametrize("mu_n,want", [(1.5414940825367975, [2]), (2.5277264731571285, [3, 4])])
    def test_balance_near_zero_on_the_scan_grid(self, mu_n, want):
        # one atom: the balance phi ln(1 + 1/mu_n) - 1 is within rounding of
        # zero at a scan point, where the ladder's last bits decide the sign
        sp = collapse_iui([])
        assert threshold_set(1.0, sp.ring_basis, mu_n) == want
        assert atom_threshold_set(1.0, sp, mu_n, phi_max=20.0) == want

    def test_empty_spectrum(self):
        for mu_s in (100.0, 1000.0):
            sp = collapse_iui([])
            assert threshold_set(mu_s, sp.ring_basis, 0.0) == atom_threshold_set(mu_s, sp, 0.0) == [1]
            # P(1 | 0) is exactly 0 here, so an underflowed P(1 | 1) still flips
            assert optimal_threshold(mu_s, [], 0.0) == atom_optimal_threshold(mu_s, sp, 0.0) == 1

    def test_underflow_before_the_flip_is_not_a_threshold(self):
        # the ratio flips at r = 38, where both count pmfs are far below
        # 1e-308; a later r where only P(r | 1) is representable must not
        # be returned in its place
        sp = collapse_iui([(1e-10, 36)])
        assert atom_optimal_threshold(1000.0, sp, 0.0) == 38
        assert optimal_threshold(1000.0, sp.ring_basis, 0.0) == 38

    def test_threshold_set_memory_is_chunked(self):
        # mu_n = 3000 puts the bound at 3148, so the pmfs run to 3151
        # counts; one window per count would take a 3151 x 3151 array
        # (79 MB). mu_n = 0 has no bit-0 mass past r = 0 and returns before
        # any pmf; mu_n = 3000 convolves two full-length pmfs
        for mu_n in (0.0, 3000.0):
            tracemalloc.start()
            try:
                got = threshold_set(300.0, [], mu_n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8e6
            assert got == atom_threshold_set(300.0, collapse_iui([]), mu_n, phi_max=4000.0)
