"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s to see them on success)."""

import math

import numpy as np

from treesense import (ExperimentConfig, LearnConfig, SensingConfig,
                       TrainingSet, adaptive_sense_coeffs,
                       allocate_beta, failure_bound, gaussian_ensemble,
                       initial_dictionary, is_tree_sparse,
                       lasso_solve, learn, make_tree, min_amplitude,
                       random_tree_sparse, random_tree_sparse_batch, synthetic_corpus,
                       tree_project_batch, tree_prox, tree_sparse_rows,
                       two_stage_estimate_coeffs, verify_theorem, write_csv)
from treesense.harness import compare_methods

from conftest import best_subtree_energy, significant_sets, support_of


def _check(num, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


def test_criterion_1_measurement_count_law():
    # noiseless correct tests: every session ends at m = dk+1 with S_hat = S.
    # The trials' k and vectors are drawn in turn from one generator; the
    # sessions draw nothing, so each k's trials are sensed in one call
    bad = 0
    total = 0
    cfg = SensingConfig(beta=1.0, tau=0.5, noise_std=0.0)
    for d in (2, 3):
        for L in range(4, 9):
            tree = make_tree(d, L)
            rng = np.random.default_rng([1, d, L])
            k_cap = min(10, make_tree(d, L - 1).p)  # supports stay internal
            by_k = {}
            for trial in range(200):
                k = int(rng.integers(1, k_cap + 1))
                by_k.setdefault(k, []).append(random_tree_sparse(tree, k, 1.0, 2.0, rng,
                                                                 max_depth=L - 1))
            for k, vecs in by_k.items():
                out = adaptive_sense_coeffs(np.array(vecs), tree, cfg, rng)
                for m, found, vec in zip(out.m, significant_sets(out), vecs, strict=True):
                    total += 1
                    bad += m != d * k + 1 or found != support_of(vec)
    _check(1, "measurement-count law m = dk+1 with exact support",
           bad == 0, f"{bad}/{total} violations")


def test_criterion_2_failure_probability_bound():
    d, L = 2, 10  # p = 1023
    trials = 10_000
    table, _ = verify_theorem(ExperimentConfig(d=d, L=L, k=(7, 15, 31), trials=trials,
                                               seed=2))
    all_ok = True
    details = []
    for k in (7, 15, 31):
        R = float((d + 1) * k)  # beta = 1, unit per-measurement scale
        beta = allocate_beta(R, d, k)
        alpha = min_amplitude(c1=1.0, a=0.5, d=d, k=k, beta=beta)
        tau = 0.5 * beta * alpha
        bound = failure_bound(beta, tau, alpha, k, d)
        cell = table["note"] == f"k={k}"
        assert cell.sum() == trials
        rate = np.sum(table["support_exact"][cell] == 0) / trials
        se = math.sqrt(bound * (1 - bound) / trials)
        ok = rate <= bound + 3 * se and rate <= 1.0 / k
        all_ok &= ok
        details.append(f"k={k}: rate={rate:.4g} bound={bound:.4g} 1/k={1/k:.4g}")
    _check(2, "empirical failure within union bound and below 1/k",
           all_ok, "; ".join(details))


def test_criterion_3_two_stage_error_scaling():
    tree = make_tree(2, 6)
    k, R0 = 15, 800.0
    sigma = 1.0
    means = []
    for R in (R0, 2 * R0, 4 * R0):
        beta1 = allocate_beta(0.5 * R0, 2, k)  # smallest budget is binding
        alpha = 12.0 / beta1
        # trial t draws its vector, then both stages' noise, from its own generator
        rngs = [np.random.default_rng([3, int(R), trial]) for trial in range(1000)]
        nodes, values = random_tree_sparse_batch(tree, k, alpha, alpha, rngs, 1000,
                                                 max_depth=5)
        vecs = tree_sparse_rows(tree, nodes, values)
        estimate, _ = two_stage_estimate_coeffs(vecs, tree, R, k, rngs,
                                                alpha_min=alpha, noise_std=sigma)
        errs = np.sum((estimate - vecs) ** 2, axis=1)
        means.append(float(np.mean(errs)))
    preds = [2 * k**2 * sigma**2 / R for R in (R0, 2 * R0, 4 * R0)]
    ok_pred = all(abs(m - p) <= 0.15 * p for m, p in zip(means, preds))
    ratios = [means[i] / means[i + 1] for i in range(2)]
    ok_half = all(abs(r - 2.0) <= 0.15 * 2.0 for r in ratios)
    _check(3, "two-stage error matches 2k^2 s^2/R and halves per doubling",
           ok_pred and ok_half,
           f"means={[f'{m:.4g}' for m in means]} "
           f"pred={[f'{p:.4g}' for p in preds]} ratios={[f'{r:.3g}' for r in ratios]}")


def _adaptive_success_rate(alpha, tree, k, R, trials, tag):
    # trial t draws its vector, then its noise, from its own generator
    beta = allocate_beta(R, tree.d, k)
    rngs = [np.random.default_rng([4, tag, trial]) for trial in range(trials)]
    nodes, values = random_tree_sparse_batch(tree, k, alpha, alpha, rngs, trials,
                                             max_depth=tree.depth - 1)
    cfg = SensingConfig(beta=beta, tau=0.5 * beta * alpha, noise_std=1.0, budget=R)
    out = adaptive_sense_coeffs(tree_sparse_rows(tree, nodes, values), tree, cfg, rngs)
    hits = sum(found == set(row) for found, row in zip(significant_sets(out), nodes.tolist()))
    return hits / trials


# criterion 4's success rate: an amplitude counts as recovered at this rate
_TARGET = 0.9


def _lasso_success_rate(alpha, tree, k, R, m, trials, tag):
    """Best support-recovery rate over the lambda grid, in grid order; it
    returns at the first lambda whose rate reaches _TARGET, since callers
    only compare the rate with _TARGET."""
    p = tree.p
    phi = gaussian_ensemble(m, p, budget=R, seed=4000 + tag)
    rng = np.random.default_rng([4, 99, tag])
    nodes, values = random_tree_sparse_batch(tree, k, alpha, alpha, rng, trials,
                                             max_depth=tree.depth - 1)
    A_mat = np.ascontiguousarray(tree_sparse_rows(tree, nodes, values).T)
    supports = [frozenset(row) for row in nodes.tolist()]
    Y = phi @ A_mat + rng.standard_normal((m, trials))
    base = math.sqrt(2 * math.log(p))  # columns have unit norm at R = p
    best = 0.0
    for lam in (0.25 * base, 0.5 * base, base):
        X = lasso_solve(phi[None], Y[None], lam, max_iters=150, tol=1e-7)[0]
        hits = 0
        for t in range(trials):
            top = np.argsort(-np.abs(X[:, t]))[:k]
            hits += frozenset(int(j) + 1 for j in top) == supports[t]
        best = max(best, hits / trials)
        if best >= _TARGET:
            break
    return best


def _bisect_threshold(rate_fn, lo, hi, steps=6):
    """Smallest amplitude with success rate >= _TARGET, bracketed in [lo, hi]."""
    for _ in range(steps):
        mid = math.sqrt(lo * hi)
        if rate_fn(mid) >= _TARGET:
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_criterion_4_weak_signal_recovery_advantage():
    tree = make_tree(2, 10)  # n = p = 1023 coefficient-domain comparison
    k = 15
    R = float(tree.p)
    trials = 500
    tag = [0]

    def adaptive_rate(alpha):
        tag[0] += 1
        return _adaptive_success_rate(alpha, tree, k, R, trials, tag[0])

    def lasso_rate(alpha):
        tag[0] += 1
        return _lasso_success_rate(alpha, tree, k, R, m=200, trials=trials,
                                   tag=tag[0])

    assert adaptive_rate(0.5) < _TARGET and adaptive_rate(8.0) >= _TARGET
    assert lasso_rate(1.0) < _TARGET and lasso_rate(32.0) >= _TARGET
    _, ad_hi = _bisect_threshold(adaptive_rate, 0.5, 8.0)
    la_lo, _ = _bisect_threshold(lasso_rate, 1.0, 32.0)
    factor = la_lo / ad_hi  # conservative bracket endpoints
    _check(4, "adaptive 90%-recovery amplitude at least 2x below lasso",
           factor >= 2.0,
           f"adaptive<= {ad_hi:.3g}, lasso>= {la_lo:.3g}, factor>= {factor:.3g}")


def test_criterion_5_prox_oracle_equivalence():
    """The KKT / duality-gap certificate of test_prox bounds
    ||tree_prox(v) - prox(v)||_2 on every tree with p <= 7."""
    from test_prox import SMALL_TREES, per_group_prox, prox_certificate

    worst_resid = worst = 0.0
    rng = np.random.default_rng(5)
    for d, L in SMALL_TREES:
        tree = make_tree(d, L)
        for norm in ("l2", "linf"):
            for _ in range(100):
                v = 2.0 * rng.standard_normal(tree.p)
                thr = rng.uniform(0.05, 1.5)
                _, duals = per_group_prox(v, tree, thr, norm)
                resid, dist = prox_certificate(v, tree_prox(v, tree, thr, norm),
                                               thr, tree, norm, duals)
                worst_resid, worst = max(worst_resid, resid), max(worst, dist)
    _check(5, "tree_prox certified by the duality gap on all trees with p <= 7",
           worst_resid <= 1e-10 and worst <= 1e-6,
           f"worst distance bound {worst:.3g}, KKT residual {worst_resid:.3g}")


def test_criterion_6_dictionary_learning_invariants():
    rng = np.random.default_rng(6)
    tree = make_tree(2, 4)  # p = 15
    n, q, k = 64, 200, 6
    Q, _ = np.linalg.qr(rng.standard_normal((n, tree.p)))
    A_star = np.column_stack([random_tree_sparse(tree, k, 0.5, 1.5, rng)
                              for _ in range(q)])
    X = Q @ A_star + 0.01 * rng.standard_normal((n, q))
    tr = TrainingSet.from_raw(X)
    cfg = LearnConfig(lam=0.05, outer_iters=50, tol=0.0)
    d, A, hist = learn(tr, initial_dictionary(tr, tree, rng), cfg)
    monotone = all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
    ortho = float(np.max(np.abs(d.atoms.T @ d.atoms - np.eye(tree.p))))
    sparse_ok = all(is_tree_sparse(A[:, i], tree, tol=1e-9)
                    for i in range(q))
    _check(6, "objective nonincreasing, D orthonormal, codes tree-sparse",
           monotone and ortho <= 1e-8 and sparse_ok,
           f"alternations={len(hist)} ortho_dev={ortho:.2g}")


def test_criterion_7_exact_projection_matches_enumeration():
    # each (tree, k) is enumerated once, and shared by the 50 vectors
    mismatches = 0
    rng = np.random.default_rng(7)
    for d, L in ((2, 2), (3, 2), (4, 2), (6, 2), (2, 3), (3, 3), (2, 4)):
        tree = make_tree(d, L)
        for _ in range(50):
            v = rng.standard_normal(tree.p) * rng.uniform(0.5, 2.0)
            for k in range(1, tree.p + 1):
                values, _ = tree_project_batch(v[None], tree, k)
                if abs(np.sum(values[0]**2) - best_subtree_energy(tree, v, k)) > 1e-10:
                    mismatches += 1
    _check(7, "exact tree projection equals exhaustive enumeration (p <= 15)",
           mismatches == 0, f"{mismatches} mismatches")


def test_criterion_8_protocol_level_comparison():
    rng = np.random.default_rng(8)
    tree = make_tree(2, 7)  # p = 127 planted binary dictionary
    side, q, k = 64, 160, 20
    X, planted, _ = synthetic_corpus(q, side, tree, k, rng, amp=30.0)
    tr = TrainingSet.from_raw(X)
    budgets = (4096.0, 512.0, 128.0)
    cfg = ExperimentConfig(mode="compare", budgets=budgets,
                           taus=(0.0, 0.5, 1.0, 2.0), measurements=(64,),
                           noise_std=1.0, trials=3, seed=8, test_signals=3,
                           target_sparsity=k)
    table = compare_methods(cfg, training=tr, dictionary=planted,
                            dict_mean=np.full(side * side, 0.5))
    rows = list(zip(table["method"], table["R"], table["tau"], table["snr_db"],
                    table["exact"], strict=True))

    def mean_snr(method, R, tau=None):
        vals = [snr for row_method, row_R, row_tau, snr, exact in rows
                if row_method == method and row_R == R
                and (tau is None or row_tau == tau)
                and not exact]
        return float(np.mean(vals))

    ok_order = True
    for method in ("lasso", "model-cosamp"):
        snrs = [mean_snr(method, R) for R in budgets]
        ok_order &= snrs[0] > snrs[1] > snrs[2]

    ok_tau = True
    for R in budgets:
        ref = mean_snr("adaptive", R, tau=0.0)
        ok_tau &= any(mean_snr("adaptive", R, tau=t) >= ref - 2.0
                      for t in (0.5, 1.0, 2.0))
    _check(8, "baseline SNR decreases with budget; some tau>0 within 2 dB of tau=0",
           ok_order and ok_tau)


def test_criterion_9_deterministic_csv(tmp_path):
    pairs = []
    for run in (1, 2):
        cfg = ExperimentConfig(d=2, L=5, k=(3, 7), trials=40, seed=99,
                               out=str(tmp_path / f"vt{run}.csv"))
        table, _ = verify_theorem(cfg)
        write_csv(cfg.out, table)
        pairs.append((tmp_path / f"vt{run}.csv").read_bytes())
    same_vt = pairs[0] == pairs[1]

    rng = np.random.default_rng(9)
    tree = make_tree(2, 5)
    X, planted, _ = synthetic_corpus(20, 8, tree, 6, rng)
    tr = TrainingSet.from_raw(X)
    blobs = []
    for run in (1, 2):
        cfg = ExperimentConfig(mode="compare", budgets=(64.0,), taus=(0.0, 0.5),
                               measurements=(8,), trials=3, seed=9,
                               test_signals=2, target_sparsity=6,
                               out=str(tmp_path / f"cmp{run}.csv"))
        write_csv(cfg.out, compare_methods(cfg, training=tr, dictionary=planted,
                                           dict_mean=np.full(64, 0.5)))
        blobs.append((tmp_path / f"cmp{run}.csv").read_bytes())
    same_cmp = blobs[0] == blobs[1]
    _check(9, "byte-identical CSV across repeated same-seed runs",
           same_vt and same_cmp)
