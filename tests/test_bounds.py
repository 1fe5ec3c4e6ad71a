import math

import numpy as np
import pytest

from treesense import failure_bound, false_alarm_bound, min_amplitude, miss_bound


def test_false_alarm_values():
    assert false_alarm_bound(0) == 1.0
    assert false_alarm_bound(2) == pytest.approx(math.exp(-2))
    assert false_alarm_bound(3) == pytest.approx(0.011109, abs=1e-6)
    with pytest.raises(ValueError):
        false_alarm_bound(-1)


def test_miss_values():
    assert miss_bound(1.0, 5.0, 3.0) == pytest.approx(math.exp(-2))
    assert miss_bound(1.0, 3.0, 0.0) == pytest.approx(0.011109, abs=1e-6)
    assert miss_bound(1.0, 1.0, 1.0 - 1e-9) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        miss_bound(1.0, 1.0, 1.0)


def test_failure_bound_values():
    # k=1, d=2, tau=3, beta*alpha=6 -> 3 e^{-4.5}
    assert failure_bound(2.0, 3.0, 3.0, 1, 2) == pytest.approx(3 * math.exp(-4.5), rel=1e-12)
    assert failure_bound(1.0, 0.0, 1.0, 3, 2) == 1.0
    raw = failure_bound(1.0, 0.0, 1.0, 3, 2, clamp=False)
    assert raw >= 2 * 3 + 1 - 3  # m - k false-alarm terms alone
    # symmetric point tau = beta*alpha/2, d=2: both exponents coincide
    beta, alpha, k = 1.0, 6.0, 4
    tau = beta * alpha / 2
    expect = (k + 1) * math.exp(-tau**2 / 2) + k * math.exp(-tau**2 / 2)
    assert failure_bound(beta, tau, alpha, k, 2) == pytest.approx(expect)


def test_failure_bound_monotonicity():
    taus = np.linspace(0.1, 2.9, 15)
    vals = [failure_bound(1.0, t, 6.0, 4, 2, clamp=False) for t in taus]
    # decreasing in tau over [0, argmin candidate region]
    best = int(np.argmin(vals))
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(best))
    # decreasing in alpha_min at fixed tau
    alphas = np.linspace(2.0, 10.0, 9)
    vals_a = [failure_bound(1.0, 1.0, a, 4, 2, clamp=False) for a in alphas]
    assert all(x >= y for x, y in zip(vals_a, vals_a[1:]))
    # increasing in k
    vals_k = [failure_bound(1.0, 2.0, 6.0, k, 2, clamp=False) for k in range(2, 10)]
    assert all(x <= y for x, y in zip(vals_k, vals_k[1:]))


def test_min_amplitude_beta_scaling():
    a1 = min_amplitude(1.0, 0.5, 2, 8, 1.0)
    a2 = min_amplitude(1.0, 0.5, 2, 8, 2.0)
    assert a1 == pytest.approx(2 * a2)


def test_min_amplitude_explicit_value():
    # independent re-derivation of the two branch thresholds
    c1, a, d, k, beta = 1.0, 0.5, 2, 31, 1.0
    fa = math.sqrt((2 * math.log((d - 1) * k + 1) + 2 * c1 * math.log(k)
                    + 2 * math.log(2)) / (beta**2 * a**2))
    miss = math.sqrt((2 * (1 + c1) * math.log(k) + 2 * math.log(2))
                     / (beta**2 * (1 - a)**2))
    assert min_amplitude(c1, a, d, k, beta) == pytest.approx(max(fa, miss))
    with pytest.raises(ValueError):
        min_amplitude(1.0, 0.5, 2, 1, 1.0)
    nan = float("nan")
    for args in ((nan, 0.5, 2, k, beta), (c1, nan, 2, k, beta), (c1, a, 2, nan, beta),
                 (c1, a, 2, k, nan)):
        with pytest.raises(ValueError):
            min_amplitude(*args)


def test_min_amplitude_log_k_scaling():
    ks = [4, 16, 64, 256]
    ratios = [min_amplitude(1.0, 0.5, 2, k, 1.0) / math.sqrt(math.log(k))
              for k in ks]
    assert max(ratios) / min(ratios) < 1.6  # ~sqrt(log k)/beta growth


def test_amplitude_threshold_meets_target_on_grid():
    # at alpha_min = min_amplitude, each branch <= k^{-c1}/2 so the union
    # bound is <= k^{-c1}
    for c1 in (0.5, 1.0, 2.0):
        for a in (0.25, 0.5, 0.75):
            for d in (2, 3):
                for k in range(2, 65):
                    beta = 1.3
                    alpha = min_amplitude(c1, a, d, k, beta)
                    tau = a * beta * alpha
                    m = d * k + 1
                    fa_term = (m - k) * false_alarm_bound(tau)
                    miss_term = k * miss_bound(beta, alpha, tau)
                    assert fa_term <= k**-c1 / 2 + 1e-12
                    assert miss_term <= k**-c1 / 2 + 1e-12
                    assert failure_bound(beta, tau, alpha, k, d, clamp=False) \
                        <= k**-c1 + 1e-12


def test_bounds_dominate_gaussian_simulation(rng):
    # 1e5 draws, 3 sigma slack
    n = 100_000
    z = rng.standard_normal(n)
    for tau in (1.5, 2.0, 3.0):
        emp = np.mean(np.abs(z) >= tau)
        se = math.sqrt(emp * (1 - emp) / n)
        assert emp <= false_alarm_bound(tau) + 3 * se
    beta, alpha = 1.0, 4.0
    y = beta * alpha + rng.standard_normal(n)
    for tau in (1.0, 2.0, 3.0):
        emp = np.mean(np.abs(y) < tau)
        se = math.sqrt(emp * (1 - emp) / n) + 1e-6
        assert emp <= miss_bound(beta, alpha, tau) + 3 * se
