"""Exact binomial test for the experiments' pass rates.

A rate check of the form ``|passes/trials - p| <= 5 sigma`` leans on the
normal approximation, which fails when ``trials * p`` is small: at
p = 1/4099 and 2 000 trials (about 0.5 expected passes) four passes are
already "beyond 5 sigma", and that happens in one call in 650.  The test
here asks the question the 5-sigma rule stands for, exactly: is the
observed count inside the two-sided binomial tail of probability
``FIVE_SIGMA``, the normal distribution's mass beyond 5 sigma?
"""

from __future__ import annotations

import math

FIVE_SIGMA = math.erfc(5 / math.sqrt(2))  # two-sided, about 5.7e-7


def _log_pmf(k, n, p):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def tail(passes, trials, rate):
    """Probability of a count at least as far from the mean as ``passes``,
    on its own side: P(X >= passes) above the mean, P(X <= passes) below
    it, for X ~ Binomial(trials, rate).  At most 1."""
    p = float(rate)
    if not 0 <= passes <= trials:
        return 0.0
    if p <= 0:
        return 1.0 if passes == 0 else 0.0
    if p >= 1:
        return 1.0 if passes == trials else 0.0
    step = 1 if passes > trials * p else -1
    total = 0.0
    k = passes
    while 0 <= k <= trials:
        term = math.exp(_log_pmf(k, trials, p))
        total += term
        # Away from the mean the terms only shrink, and geometrically.
        if term <= total * 1e-17:
            break
        k += step
    return min(total, 1.0)


def consistent(passes, trials, rate, alpha=FIVE_SIGMA):
    """True unless ``passes`` of ``trials`` lies in the two-sided binomial
    tail of probability ``alpha`` around ``rate``."""
    return tail(passes, trials, rate) >= alpha / 2
