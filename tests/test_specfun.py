import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from mc_arelab.errors import ParameterError
from mc_arelab.specfun import (
    erf,
    log_sum_exp,
    regularized_gamma_p,
    regularized_gamma_q,
)


def erf_maclaurin(x: float, terms: int = 40) -> float:
    """Independent oracle: alternating Maclaurin series for erf."""
    acc = 0.0
    for n in range(terms):
        acc += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * acc


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_odd_symmetry(self):
        assert erf(-0.7) == -erf(0.7)

    def test_at_one_against_series_oracle(self):
        assert erf(1.0) == pytest.approx(0.842700792949715, abs=1e-12)
        assert erf(1.0) == pytest.approx(erf_maclaurin(1.0), abs=1e-13)

    def test_monotone(self):
        xs = np.linspace(-4, 4, 81)
        vals = [erf(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bounded_strictly_below_one(self):
        # the strict bound is representable in float64 up to |x| ~ 5.8
        assert abs(erf(5.0)) < 1.0
        assert abs(erf(-5.8)) < 1.0
        assert abs(erf(-9.0)) <= 1.0

    def test_quadrature_agreement(self):
        for x in np.arange(0.1, 3.01, 0.1):
            ref, _ = integrate.quad(lambda y: 2.0 / math.sqrt(math.pi) * math.exp(-y * y), 0.0, x)
            assert erf(float(x)) == pytest.approx(ref, abs=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            erf(math.inf)
        with pytest.raises(ParameterError):
            erf(math.nan)
        with pytest.raises(ParameterError):
            erf(np.array([0.5, math.nan]))

    def test_arrays_elementwise(self):
        xs = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
        values = erf(xs)
        assert values.shape == (3, 4)
        assert values.tolist() == [[math.erf(x) for x in row] for row in xs.tolist()]
        assert type(erf(0.3)) is float


class TestRegularizedGamma:
    def test_p_order_one_closed_form(self):
        assert regularized_gamma_p(1, 2.0) == pytest.approx(0.864664716763387, abs=1e-13)

    def test_p_at_zero(self):
        assert regularized_gamma_p(5, 0.0) == 0.0

    def test_p_order_two_partial_sum_oracle(self):
        # 1 - (1 + 1) e^{-1}
        assert regularized_gamma_p(2, 1.0) == pytest.approx(0.264241117657115, abs=1e-13)

    def test_q_at_zero(self):
        assert regularized_gamma_q(1, 0.0) == 1.0

    def test_q_order_one(self):
        assert regularized_gamma_q(1, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-13)

    def test_q_three_term_sum_oracle(self):
        # e^{-2}(1 + 2 + 2) = 5 e^{-2}
        assert regularized_gamma_q(3, 2.0) == pytest.approx(0.676676416183063, abs=1e-13)

    def test_complement_identity_on_grid(self):
        for a in range(1, 21):
            for x in np.linspace(0.0, 30.0, 20):
                s = regularized_gamma_p(a, float(x)) + regularized_gamma_q(a, float(x))
                assert s == pytest.approx(1.0, abs=1e-12)

    def test_q_monotone_on_grid(self):
        xs = np.linspace(0.0, 30.0, 20)
        for a in range(1, 21):
            q_row = [regularized_gamma_q(a, float(x)) for x in xs]
            assert all(b <= a_ + 1e-15 for a_, b in zip(q_row, q_row[1:]))
        for x in xs:
            q_col = [regularized_gamma_q(a, float(x)) for a in range(1, 21)]
            assert all(b >= a_ - 1e-15 for a_, b in zip(q_col, q_col[1:]))

    def test_against_library_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = int(rng.integers(1, 400))
            x = float(rng.uniform(0.0, 500.0))
            assert regularized_gamma_p(a, x) == pytest.approx(
                float(special.gammainc(a, x)), rel=1e-10, abs=1e-300
            )
            assert regularized_gamma_q(a, x) == pytest.approx(
                float(special.gammaincc(a, x)), rel=1e-10, abs=1e-12
            )

    def test_small_p_keeps_relative_precision(self):
        # tail series route: P(21, 0.1) is far below 1e-16
        p = regularized_gamma_p(21, 0.1)
        assert p == pytest.approx(float(special.gammainc(21, 0.1)), rel=1e-10)
        assert 0.0 < p < 1e-30

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            regularized_gamma_p(0, 1.0)
        with pytest.raises(ParameterError):
            regularized_gamma_q(3, -0.5)
        with pytest.raises(ParameterError):
            regularized_gamma_p(2.5, 1.0)  # type: ignore[arg-type]

    @given(a=st.integers(1, 150), x=st.floats(0.0, 300.0))
    @settings(max_examples=150, deadline=None)
    def test_complement_identity_property(self, a, x):
        assert regularized_gamma_p(a, x) + regularized_gamma_q(a, x) == pytest.approx(1.0, abs=1e-12)


class TestLogSumExp:
    def test_single_term(self):
        assert log_sum_exp([math.log(1.0)]) == 0.0

    def test_small_exact_sum(self):
        assert log_sum_exp([math.log(2.0), math.log(3.0)]) == pytest.approx(math.log(5.0), abs=1e-14)

    def test_shift_invariance_at_large_magnitude(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            log_sum_exp([])

    def test_neg_inf_terms_drop_out(self):
        assert log_sum_exp([-math.inf, 0.0]) == pytest.approx(0.0, abs=1e-15)
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    @given(
        terms=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
        shift=st.floats(-700.0, 700.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_property(self, terms, shift):
        base = log_sum_exp(terms)
        shifted = log_sum_exp([t + shift for t in terms])
        assert shifted == pytest.approx(base + shift, rel=1e-12, abs=1e-9)

