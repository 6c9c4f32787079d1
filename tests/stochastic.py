"""Family-wise bounds for the stochastic assertions of the test suite.

Each check states its family-wise false-failure probability alpha: the
chance, for exact code, that any of its comparisons fails. The bounds hold
at every sample size, so a check that passes does not lean on its seed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special, stats

from mc_arelab.channel import cir


def bernoulli_kl(a: float, c: float) -> float:
    """Relative entropy D(a || c) of two Bernoulli laws, in nats."""
    total = 0.0
    for x, y in ((a, c), (1.0 - a, 1.0 - c)):
        if x > 0.0:
            if y <= 0.0:
                return math.inf
            total += x * math.log(x / y)
    return total


def max_chernoff_score(trace, cfg, offset, params, geom, alpha, records=None):
    """The largest N * D(observed || cir) over the checked records, and the bound it must stay under.

    Every particle is independent, so each record's in-receiver count is
    Binomial(N, cir(t)), N = realizations * particles. By the Chernoff
    bound on either tail, one record scores t or more with probability at
    most 2 e^-t, so a score past ln(2 n / alpha) happens at any of the n
    checked records with probability at most the family-wise ``alpha``.
    ``records`` lists the indices checked; all of them by default.
    """
    if records is None:
        records = range(len(trace.times))
    n_total = cfg.realizations * cfg.particles
    times = np.array([trace.times[k] for k in records])
    expected = cir(times, offset, params, geom)
    scores = [
        n_total * bernoulli_kl(round(trace.mean_fraction[k] * n_total) / n_total, ref)
        for k, ref in zip(records, expected.tolist())
    ]
    return max(scores), math.log(2.0 * len(scores) / alpha)


def spread_rate(y, values, log_pmf):
    """The Cramer rate sup_l (l y - ln E e^(l Y)) of a mean of copies of Y at y.

    Y takes ``values`` with the log probabilities ``log_pmf``. Every l
    gives a valid lower bound on the rate, so a maximizer that stops short
    of the supremum only makes a check built on it more lenient.
    """

    def loss(lam):
        return special.logsumexp(lam * values + log_pmf) - lam * y

    width = float(np.ptp(values[np.isfinite(log_pmf)]))
    if width == 0.0:
        return 0.0 if abs(y - values[np.argmax(log_pmf)]) <= 1e-12 else math.inf
    bound = 1e6 / width
    return max(0.0, -optimize.minimize_scalar(loss, bounds=(-bound, bound), method="bounded").fun)


def max_dispersion_score(trace, cfg, offset, params, geom, alpha, records=None):
    """The largest R * I(observed spread about cir) over the checked records, and its bound.

    At one record the R = realizations in-receiver counts X_r are
    independent Binomial(P, c), P = particles and c = cir(t), so
    Y = (X / P - c)^2 takes P + 1 known values with binomial weights. A
    trace's mean m and stderr s give the mean of the R copies exactly:
    (R - 1) s^2 + (m - c)^2. By the Cramer-Chernoff bound that mean lies
    past y on either side of E Y with probability at most e^(-R I(y))
    (``spread_rate``), so a score past ln(2 n / alpha) happens at any of
    the n checked records with probability at most the family-wise
    ``alpha``. It fails a stderr off by a factor where the mean is right.
    """
    if records is None:
        records = range(len(trace.times))
    n, p = cfg.realizations, cfg.particles
    counts = np.arange(p + 1)
    times = np.array([trace.times[k] for k in records])
    scores = []
    for k, ref in zip(records, cir(times, offset, params, geom).tolist()):
        y = (n - 1) * trace.stderr[k] ** 2 + (trace.mean_fraction[k] - ref) ** 2
        scores.append(n * spread_rate(y, (counts / p - ref) ** 2, stats.binom.logpmf(counts, p, ref)))
    return max(scores), math.log(2.0 * len(scores) / alpha)


def ber_band(result, analytic, alpha):
    """Lower and upper edges of each sampled BER, missed with probability at most ``alpha`` per row.

    ``analytic`` is the exact BER at each row of ``result``. A stochastic
    row counts its errors, which are exactly Binomial(samples, BER): the
    edges are its exact quantiles, alpha / 2 on each tail. A semi-analytic
    row is a mean of per-sample error probabilities in [0, 1], so
    Hoeffding's bound 2 e^(-2 n eps^2) gives the edges BER -+ eps.
    """
    n = result.samples
    if result.mode == "stochastic":
        return stats.binom.ppf(alpha / 2, n, analytic) / n, stats.binom.isf(alpha / 2, n, analytic) / n
    eps = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
    return analytic - eps, analytic + eps


def ber_failures(result, analytic, theta, alpha):
    """How a Monte Carlo BER curve strays from the exact curve ``analytic``; empty if it does not.

    For exact code some line appears with probability at most the
    family-wise ``alpha``. Half of it goes to the row at ``theta``. The
    other half is split over all theta_max + 1 rows: with the rest every
    row lies in its band at once, so the best row's BER lies in its own
    band and under every row's upper edge. That bounds both that BER and
    how far the best theta may sit from the analytic minimum.
    """
    n = result.samples
    ber = result.ber
    failures = []
    lo, hi = ber_band(result, analytic[theta], alpha / 2)
    if not lo <= ber[theta] <= hi:
        failures.append(f"ber {ber[theta]:.6f} at theta {theta} outside [{lo:.6f}, {hi:.6f}] (n = {n})")
    lo, hi = ber_band(result, analytic, alpha / 2 / ber.size)
    best = result.best
    if not lo[best] <= ber[best] <= hi.min():
        failures.append(f"best ber {ber[best]:.6f} at theta {best} outside [{lo[best]:.6f}, {hi.min():.6f}] (n = {n})")
    return failures


def best_theta_failures(result, analytic, theta_opt, alpha):
    """How a Monte Carlo best theta strays from the analytic optimum ``theta_opt``; empty if it does not.

    With the bands of ber_band at alpha / (theta_max + 1) per row, every row
    lies in its band at once except with probability at most ``alpha``. Then
    lo[best] <= ber[best] <= ber[theta_opt] <= hi[theta_opt], so a best row
    whose band starts above hi[theta_opt] fails exact code with probability
    at most ``alpha``.
    """
    lo, hi = ber_band(result, analytic, alpha / result.ber.size)
    best = result.best
    if lo[best] > hi[theta_opt]:
        return [f"best theta {best} has a band above the upper edge {hi[theta_opt]:.9f} at theta {theta_opt}"]
    return []


def u_shape_failures(result, analytic, alpha):
    """How a Monte Carlo BER curve breaks the U shape of ``analytic``, and the steps checked.

    Returns (failures, down, up). With the bands of ber_band at
    alpha / (theta_max + 1) per row, every row lies in its band at once
    except with probability at most the family-wise ``alpha``. A step from
    theta to theta + 1 is checked where the two bands do not overlap: it
    must go down left of the analytic minimum (``down``) and up right of it
    (``up``), and in-band rows always do. The best row must be one whose
    band reaches below every row's upper edge.
    """
    ber = result.ber
    lo, hi = ber_band(result, analytic, alpha / ber.size)
    middle = int(np.argmin(analytic))
    down = [t for t in range(middle) if hi[t + 1] < lo[t]]
    up = [t for t in range(middle, ber.size - 1) if hi[t] < lo[t + 1]]
    failures = [f"ber rises from theta {t} to {t + 1}" for t in down if not ber[t] > ber[t + 1]]
    failures += [f"ber falls from theta {t} to {t + 1}" for t in up if not ber[t] < ber[t + 1]]
    best = result.best
    if not lo[best] <= hi.min():
        failures.append(f"best theta {best} has a band above the upper edge {hi.min():.6f}")
    return failures, down, up
