"""Family-wise bounds for the stochastic assertions of the test suite.

Each check states its family-wise false-failure probability alpha: the
chance, for exact code, that any of its comparisons fails. The bounds hold
at every sample size, so a check that passes does not lean on its seed.
"""

from __future__ import annotations

import math

import numpy as np

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
