"""Closed-form tail and failure bounds for the threshold-traversal procedure.

All functions are pure; probabilities can be returned unclamped for
monotonicity checks.
"""

from __future__ import annotations

import math

__all__ = [
    "false_alarm_bound",
    "miss_bound",
    "failure_bound",
    "min_amplitude",
]


def false_alarm_bound(tau):
    """Upper bound on P(|y| >= tau) when the measured coefficient is zero."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return math.exp(-tau**2 / 2)


def miss_bound(beta, alpha_min, tau):
    """Upper bound on P(|y| < tau) at a coefficient of amplitude >= alpha_min.

    Only valid for tau < beta*alpha_min.
    """
    gap = beta * alpha_min - tau
    if gap <= 0:
        raise ValueError("miss bound requires tau < beta*alpha_min")
    return math.exp(-gap**2 / 2)


def failure_bound(beta, tau, alpha_min, k, d, clamp=True):
    """Union bound on the probability that the recovered support is wrong.

    Assumes the ideal measurement count m = dk + 1, so m - k = (d-1)k + 1
    zero locations are tested.  Set clamp=False for the raw (possibly > 1)
    value.
    """
    m = d * k + 1
    raw = (m - k) * false_alarm_bound(tau) + k * miss_bound(beta, alpha_min, tau)
    return min(raw, 1.0) if clamp else raw


def min_amplitude(c1, a, d, k, beta):
    """Smallest amplitude guaranteeing failure probability <= k^(-c1).

    With tau = a*beta*alpha_min, returns the max of the two explicit branch
    thresholds (false-alarm and miss); at or above it each branch of the
    union bound is <= k^(-c1)/2.
    """
    if not c1 > 0:
        raise ValueError("c1 must be positive")
    if not 0 < a < 1:
        raise ValueError("a must be in (0,1)")
    if not k >= 2:
        raise ValueError("k must be >= 2")
    if not beta > 0:
        raise ValueError("beta must be positive")
    log2 = math.log(2)
    fa = math.sqrt((2 * math.log((d - 1) * k + 1) + 2 * c1 * math.log(k) + 2 * log2)
                   / (beta**2 * a**2))
    miss = math.sqrt((2 * (1 + c1) * math.log(k) + 2 * log2)
                     / (beta**2 * (1 - a)**2))
    return max(fa, miss)
