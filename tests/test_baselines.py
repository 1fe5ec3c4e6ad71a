import logging
import re

import numpy as np
import pytest

from treesense import (TrainingSet, baselines, gaussian_ensemble, is_tree_sparse,
                       lasso_solve, make_tree, model_cosamp, pca_fit,
                       pca_reconstruct, random_tree_sparse, tree_project_batch)
from conftest import cd_lasso


def test_ensemble_row_norms():
    phi = gaussian_ensemble(10, 50, budget=200.0, seed=3)
    norms = np.linalg.norm(phi, axis=1)
    assert np.allclose(norms, np.sqrt(200.0 / 10), rtol=1e-12)
    assert np.sum(phi**2) == pytest.approx(200.0)


def test_lasso_zero_when_penalty_dominates(rng):
    A = rng.standard_normal((12, 8))
    y = rng.standard_normal(12)
    lam = np.max(np.abs(A.T @ y)) * 1.0001
    assert np.all(lasso_solve(A, y, lam) == 0)


def test_lasso_overdetermined_noiseless(rng):
    t = make_tree(2, 3)
    phi = gaussian_ensemble(20, t.p, budget=20.0, seed=1)
    alpha = random_tree_sparse(t, 3, 0.5, 1.5, rng).values
    y = phi @ alpha
    a_hat = lasso_solve(phi, y, 1e-9, max_iters=3000, tol=1e-15)
    assert np.max(np.abs(a_hat - alpha)) < 1e-6


def _relative_gap(A, y, lam, x):
    """Duality gap over the primal objective at x, from the dual point
    theta = r / max(1, |A^T r|_inf / lam), r = y - A x: a certificate that
    x's objective is within that share of the optimum."""
    r = y - A @ x
    primal = 0.5 * r @ r + lam * np.abs(x).sum()
    theta = r / max(1.0, np.abs(A.T @ r).max() / lam)
    dual = 0.5 * y @ y - 0.5 * (y - theta) @ (y - theta)
    return (primal - dual) / primal


def test_lasso_matches_coordinate_descent(rng):
    A = rng.standard_normal((8, 5))
    y = rng.standard_normal(8)
    mine = lasso_solve(A, y, 0.1, max_iters=5000, tol=1e-14)
    oracle = cd_lasso(A, y, 0.1)
    assert _relative_gap(A, y, 0.1, mine) <= 1e-8
    assert np.max(np.abs(mine - oracle)) < 1e-6


@pytest.mark.parametrize("m,p", [(20, 30), (12, 30)])
def test_lasso_both_gram_routes_match_coordinate_descent(rng, m, p):
    # p <= 2m forms K = A^T A once; p > 2m applies K as (D A^T) A
    A = rng.standard_normal((m, p))
    y = rng.standard_normal(m)
    lam = 0.2 * np.max(np.abs(A.T @ y))
    mine = lasso_solve(A, y, lam, max_iters=5000, tol=1e-14)
    assert np.count_nonzero(mine) >= 3
    assert _relative_gap(A, y, lam, mine) <= 1e-8
    assert np.max(np.abs(mine - cd_lasso(A, y, lam))) < 1e-6


@pytest.mark.parametrize("m,p", [(20, 30), (12, 30)])
def test_lasso_blocked_columns_match_one_call(rng, monkeypatch, m, p):
    A = rng.standard_normal((2, m, p))
    Y = rng.standard_normal((2, m, 10))
    lams = rng.uniform(0.1, 0.6, (2, 10)) * np.max(np.abs(A.transpose(0, 2, 1) @ Y))
    # a loose tol keeps the stop tests away from rounding level
    one_call = lasso_solve(A, Y, lams, max_iters=300, tol=1e-6)
    blocks = []

    def recording_mfista(apply_K, b, *args):
        blocks.append(b.shape[1])
        return mfista(apply_K, b, *args)

    mfista = baselines._mfista
    monkeypatch.setattr(baselines, "_mfista", recording_mfista)
    monkeypatch.setattr(baselines, "_BLOCK_BYTES", 3 * 2 * p * 8)   # 3 columns a block
    blocked = lasso_solve(A, Y, lams, max_iters=300, tol=1e-6)
    assert blocks == [3, 3, 2, 2]
    assert np.max(np.abs(blocked - one_call)) <= 1e-12


@pytest.mark.parametrize("m,p", [(40, 60), (20, 60)])
def test_lasso_carried_products_stay_close_to_direct(rng, m, p):
    # the gradient KX - b is only ever combined from earlier K-products,
    # never recomputed; after 200 iterations KX must still be A^T A X to
    # rounding level
    A = rng.standard_normal((2, m, p))
    Y = rng.standard_normal((2, m, 5))
    b = Y.transpose(0, 2, 1) @ A
    K = A.transpose(0, 2, 1) @ A
    lam = np.full((2, 5), 0.05 * np.max(np.abs(b)))
    for apply_K in (lambda D: D @ K, lambda D: (D @ A.transpose(0, 2, 1)) @ A):
        (X, GX), running = baselines._mfista(apply_K, b, lam, 200, 0.0)
        assert running.all() and np.count_nonzero(X) > 0
        assert np.max(np.abs(GX + b - X @ K)) <= 1e-11 * np.max(np.abs(X @ K))


def test_lasso_logs_relative_duality_gap(rng, caplog):
    A = rng.standard_normal((20, 30))
    Y = rng.standard_normal((20, 3))
    lam = 0.2 * np.max(np.abs(A.T @ Y))
    reported = {}
    for max_iters in (5000, 5):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="treesense.baselines"):
            X = lasso_solve(A, Y, lam, max_iters=max_iters)
        found = re.fullmatch(rf"lasso_solve: (\d+) of 3 columns stopped at "
                             rf"max_iters={max_iters}; relative duality gap "
                             r"median (\S+), max (\S+)", caplog.messages[-1])
        assert found
        gaps = [_relative_gap(A, Y[:, c], lam, X[:, c]) for c in range(3)]
        median, largest = float(found.group(2)), float(found.group(3))
        assert median == pytest.approx(np.median(gaps), rel=1e-2, abs=1e-12)
        assert largest == pytest.approx(max(gaps), rel=1e-2, abs=1e-12)
        reported[max_iters] = largest, int(found.group(1))
    assert reported[5000][0] <= 1e-8 and reported[5000][1] == 0
    assert reported[5][0] > 1e-4 and reported[5][1] == 3


def test_lasso_batched_matches_column_calls(rng):
    A = rng.standard_normal((10, 6))
    Y = rng.standard_normal((10, 4))
    batch = lasso_solve(A, Y, 0.2, max_iters=2000, tol=1e-14)
    for c in range(4):
        single = lasso_solve(A, Y[:, c], 0.2, max_iters=2000, tol=1e-14)
        assert np.max(np.abs(batch[:, c] - single)) < 1e-8


def test_cosamp_planted_recovery(rng):
    t = make_tree(2, 6)  # p = 63
    successes = 0
    for trial in range(10):
        phi = gaussian_ensemble(48, t.p, budget=float(t.p), seed=100 + trial)
        vec = random_tree_sparse(t, 8, 0.5, 1.5, rng)
        y = phi @ vec.values
        x_hat = model_cosamp(phi, y, 8, t, iters=20)
        assert is_tree_sparse(x_hat, t)
        if np.linalg.norm(y - phi @ x_hat) < 1e-6:
            successes += 1
            assert np.allclose(x_hat, vec.values, atol=1e-6)
    assert successes >= 8  # m >= 4k and well-conditioned: near-certain recovery


def test_cosamp_zero_measurements(rng):
    t = make_tree(2, 4)
    phi = gaussian_ensemble(10, t.p, budget=10.0, seed=0)
    assert np.all(model_cosamp(phi, np.zeros(10), 3, t) == 0)


def test_cosamp_k_equals_p_is_least_squares(rng):
    t = make_tree(2, 3)
    A = rng.standard_normal((20, t.p))
    alpha = rng.standard_normal(t.p)
    y = A @ alpha
    x_hat = model_cosamp(A, y, t.p, t, iters=5)
    assert np.max(np.abs(x_hat - alpha)) < 1e-8


def test_cosamp_stack_matches_unpadded_calls(monkeypatch, caplog):
    # three measurement counts zero-padded to the largest, with noiseless,
    # noisy and y = 0 columns: problems stop on the tolerance, on a stalled
    # residual, at iters and at once, in different rounds, and each must
    # equal its own unpadded 2-D call bit for bit
    rng = np.random.default_rng(9)
    t = make_tree(2, 5)
    ms, q, k = (10, 18, 31), 3, 6
    A = np.zeros((len(ms), max(ms), t.p))
    Y = np.zeros((len(ms), max(ms), q))
    for b, m in enumerate(ms):
        A[b, :m] = gaussian_ensemble(m, t.p, budget=float(t.p), seed=b)
        if m == t.p:
            A[b] = np.linalg.qr(A[b])[0]
        for c in range(q):
            Y[b, :m, c] = A[b, :m] @ random_tree_sparse(t, k, 0.5, 1.5, rng).values
        Y[b, :m, 1] += 0.05 * rng.standard_normal(m)
    Y[1, :, 2] = 0
    # with A orthonormal, a round acts on v = A^T y alone: E = the 2k-node
    # projection of v - x plus x's support, then x = the k-node projection
    # of v on E.  On this v each round reaches nodes the one before could
    # not (10 and 21, then 4) and captures more energy, so the third round
    # still improves and problem (2, 2) stops at iters
    v = np.zeros(t.p)
    v[np.array([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15, 21, 30]) - 1] = [
        2.0, 2.3, 0.3, 1.0, 2.9, 1.0, 1.0, 0.3, 2.9, 1.7, 3.0, 2.5, 0.6, 1.4, 2.4]
    Y[2, :, 2] = A[2] @ v
    sizes = []

    def recording_project(V, tree, k):
        sizes.append(len(V))
        return tree_project_batch(V, tree, k)

    monkeypatch.setattr(baselines, "tree_project_batch", recording_project)
    with caplog.at_level(logging.INFO, logger="treesense.baselines"):
        out = model_cosamp(A, Y, k, t, iters=3)
    assert out.shape == (len(ms), t.p, q)
    # one batch per projection step, over the running problems only
    assert sizes[0] == 8 and sizes[::2] == sizes[1::2] and len(set(sizes)) == 3
    assert sorted(sizes, reverse=True) == sizes
    counts = re.fullmatch(r"model_cosamp: of 9 problems, (\d+) met tol, (\d+) stalled, "
                          r"(\d+) stopped at iters=3, 1 had y = 0", caplog.messages[-1])
    assert counts and all(int(n) >= 1 for n in counts.groups())
    assert not out[1, :, 2].any()
    rounds = [model_cosamp(A[2], Y[2, :, 2], k, t, iters=n) for n in (1, 2, 3)]
    res = [np.linalg.norm(Y[2, :, 2] - A[2] @ x) for x in rounds]
    assert res[0] > res[1] > res[2] > 1e-6 * np.linalg.norm(v)
    for b, m in enumerate(ms):
        for c in range(q):
            own = model_cosamp(A[b, :m], Y[b, :m, c], k, t, iters=3)
            assert out[b, :, c].tobytes() == own.tobytes(), (b, c)


def test_cosamp_rejects_mismatched_stacks():
    t = make_tree(2, 3)
    with pytest.raises(ValueError, match=re.escape("A (2, 5, 7) and y (3, 5, 1)")):
        model_cosamp(np.ones((2, 5, 7)), np.ones((3, 5, 1)), 2, t)
    with pytest.raises(ValueError, match=re.escape("A (5, 7) and y (4,)")):
        model_cosamp(np.ones((5, 7)), np.ones(4), 2, t)


def test_pca_exact_in_span(rng):
    tr = TrainingSet.from_raw(rng.standard_normal((20, 30)))
    model = pca_fit(tr, 4)
    assert np.max(np.abs(model.components.T @ model.components - np.eye(4))) <= 1e-8
    x = tr.mean + model.components @ np.array([1.0, -2.0, 0.5, 3.0])
    rec = pca_reconstruct(model, x, budget=50.0, rng=rng, noise_std=0.0)
    assert np.allclose(rec, x)


def test_pca_zero_components_returns_mean(rng):
    tr = TrainingSet.from_raw(rng.standard_normal((10, 12)))
    model = pca_fit(tr, 0)
    x = rng.standard_normal(10)
    assert np.array_equal(pca_reconstruct(model, x, 10.0, rng), tr.mean)


def test_pca_rejects_r_above_rank(rng):
    X = np.outer(rng.standard_normal(10), rng.standard_normal(6))
    tr = TrainingSet(data=X - X.mean(axis=1, keepdims=True), mean=X.mean(axis=1))
    with pytest.raises(ValueError):
        pca_fit(tr, 5)


def test_pca_noise_variance(rng):
    # E||x_hat - x_hat_noiseless||^2 = r^2 sigma^2 / R
    tr = TrainingSet.from_raw(rng.standard_normal((15, 40)))
    r, R = 6, 30.0
    model = pca_fit(tr, r)
    x = rng.standard_normal(15)
    clean = pca_reconstruct(model, x, R, rng, noise_std=0.0)
    errs = [np.sum((pca_reconstruct(model, x, R, rng, noise_std=1.0) - clean) ** 2)
            for _ in range(2000)]
    assert np.mean(errs) == pytest.approx(r * r / R, rel=0.15)


def test_pca_components_maximize_captured_variance(rng):
    tr = TrainingSet.from_raw(rng.standard_normal((12, 25)))
    r = 3
    model = pca_fit(tr, r)
    captured = np.sum((model.components.T @ tr.data) ** 2)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((12, r)))
        assert captured >= np.sum((Q.T @ tr.data) ** 2) - 1e-9


def test_lasso_per_column_lambda_matches_column_calls_unconverged(rng):
    A = rng.standard_normal((12, 9))
    Y = rng.standard_normal((12, 4))
    lams = np.array([0.02, 0.1, 0.5, 2.0]) * np.max(np.abs(A.T @ Y))
    batch = lasso_solve(A, Y, lams, max_iters=20, tol=0.0)
    for c in range(4):
        single = lasso_solve(A, Y[:, c], lams[c], max_iters=20, tol=0.0)
        assert np.max(np.abs(batch[:, c] - single)) <= 1e-12


def _stop_iteration(A, y, lam, max_iters, tol):
    """Fewest iterations after which a single-column solve returns its final
    answer (a stopped column no longer changes)."""
    final = lasso_solve(A, y, lam, max_iters=max_iters, tol=tol)
    lo, hi = 0, max_iters
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.array_equal(lasso_solve(A, y, lam, max_iters=mid, tol=tol), final):
            hi = mid
        else:
            lo = mid
    return hi


def test_lasso_columns_stop_independently(rng):
    A = rng.standard_normal((15, 8))
    Y = rng.standard_normal((15, 4))
    Y[:, 3] = 0.0   # x = 0 is optimal from the start
    lams = np.array([0.3, 0.1, 0.6, 0.3]) * np.max(np.abs(A.T @ Y))
    # a loose tol stops the columns while the monotone and backtracking tests
    # are still far from rounding level, where batching could flip them
    max_iters, tol = 300, 1e-6
    stops = [_stop_iteration(A, Y[:, c], lams[c], max_iters, tol) for c in range(4)]
    assert len(set(stops)) == 4 and max(stops) < max_iters
    batch = lasso_solve(A, Y, lams, max_iters=max_iters, tol=tol)
    for c in range(4):
        single = lasso_solve(A, Y[:, c], lams[c], max_iters=max_iters, tol=tol)
        assert np.max(np.abs(batch[:, c] - single)) <= 1e-12


@pytest.mark.parametrize("lam", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2, 0.3]],
                                 [0.1, 0.0, 0.3], [0.1, -0.2, 0.3], [0.1, np.nan, 0.3]])
def test_lasso_rejects_bad_lambda_vector(rng, lam):
    A = rng.standard_normal((6, 5))
    Y = rng.standard_normal((6, 3))
    with pytest.raises(ValueError):
        lasso_solve(A, Y, lam)


def _lasso_objective(A, y, lam, x):
    return 0.5 * np.sum((y - A @ x) ** 2) + lam * np.sum(np.abs(x))


def test_lasso_momentum_converges_within_200_iterations(rng):
    # MFISTA builds its momentum from the last two kept iterates; building it
    # from the iterate two steps back left gaps of 0.1-0.3 here
    for _ in range(4):
        A = rng.standard_normal((40, 80))
        y = rng.standard_normal(40)
        lam = 0.1 * np.max(np.abs(A.T @ y))
        mine = lasso_solve(A, y, lam, max_iters=200, tol=0.0)
        gap = _lasso_objective(A, y, lam, mine) - _lasso_objective(A, y, lam, cd_lasso(A, y, lam))
        assert gap <= 1e-4


def test_lasso_stack_matches_one_problem_solves(rng):
    B, q = 2, 4
    A = rng.standard_normal((B, 15, 8))
    Y = rng.standard_normal((B, 15, q))
    Y[0, :, 2] = 0.0    # frozen at once in stack 0 while stack 1 iterates
    Y[:, :, 3] = 0.0    # stops in every stack, so the column is dropped
    lams = np.array([[0.3, 0.1, 0.6, 0.3], [0.1, 0.6, 0.3, 0.2]])
    lams = lams * np.max(np.abs(A.transpose(0, 2, 1) @ Y), axis=(1, 2))[:, None]
    max_iters, tol = 300, 1e-6
    stops = np.array([[_stop_iteration(A[b], Y[b, :, c], lams[b, c], max_iters, tol)
                       for c in range(q)] for b in range(B)])
    assert stops.max() < max_iters
    assert all(len(set(row)) >= 3 for row in stops)       # within a stack
    assert np.all(stops[0, :3] != stops[1, :3])           # across stacks
    stacked = lasso_solve(A, Y, lams, max_iters=max_iters, tol=tol)
    assert stacked.shape == (B, 8, q)
    for b in range(B):
        assert np.max(np.abs(stacked[b] - lasso_solve(A[b], Y[b], lams[b], max_iters=max_iters,
                                                       tol=tol))) <= 1e-12
        for c in range(q):
            single = lasso_solve(A[b], Y[b, :, c], lams[b, c], max_iters=max_iters, tol=tol)
            assert np.max(np.abs(stacked[b, :, c] - single)) <= 1e-12


@pytest.mark.parametrize("a_shape,y_shape,lam", [
    ((2, 6, 5), (6, 3), 0.1),            # stacked A, one-problem y
    ((2, 6, 5), (3, 6, 3), 0.1),         # stack counts differ
    ((2, 6, 5), (2, 7, 3), 0.1),         # measurement counts differ
    ((6, 5), (2, 6, 3), 0.1),            # one-problem A, stacked y
    ((1, 2, 6, 5), (1, 2, 6, 3), 0.1),   # no such stack
    ((2, 6, 5), (2, 6, 3), np.full((3, 3), 0.1)),
    ((2, 6, 5), (2, 6, 3), np.full((2, 2), 0.1)),
    ((2, 6, 5), (2, 6, 3), np.full((2, 3, 1), 0.1)),
])
def test_lasso_rejects_mismatched_stack_shapes(rng, a_shape, y_shape, lam):
    with pytest.raises(ValueError):
        lasso_solve(rng.standard_normal(a_shape), rng.standard_normal(y_shape), lam)


def test_pca_fit_slices_a_shared_svd(rng):
    tr = TrainingSet.from_raw(rng.standard_normal((12, 25)))
    svd = np.linalg.svd(tr.data, full_matrices=False)[:2]
    for r in (0, 3, 12):
        shared, own = pca_fit(tr, r, svd), pca_fit(tr, r)
        assert np.array_equal(shared.components, own.components)
        assert np.array_equal(shared.mean, own.mean)


def test_lasso_zero_padded_rows_match_unpadded_solves(rng):
    # compare pads every measurement count to the largest: zero rows change
    # neither the objective nor the gradient
    ms, p, q = (6, 11, 15), 8, 3
    A = np.zeros((len(ms), max(ms), p))
    Y = np.zeros((len(ms), max(ms), q))
    for b, m in enumerate(ms):
        A[b, :m] = rng.standard_normal((m, p))
        Y[b, :m] = rng.standard_normal((m, q))
    lams = np.array([[0.3, 0.1, 0.6], [0.1, 0.6, 0.3], [0.2, 0.3, 0.1]])
    lams = lams * np.max(np.abs(A.transpose(0, 2, 1) @ Y), axis=(1, 2))[:, None]
    max_iters, tol = 300, 1e-6
    stops = [_stop_iteration(A[b, :m], Y[b, :m, c], lams[b, c], max_iters, tol)
             for b, m in enumerate(ms) for c in range(q)]
    assert max(stops) < max_iters
    padded = lasso_solve(A, Y, lams, max_iters=max_iters, tol=tol)
    for b, m in enumerate(ms):
        own = lasso_solve(A[b, :m], Y[b, :m], lams[b], max_iters=max_iters, tol=tol)
        assert np.max(np.abs(padded[b] - own)) <= 1e-12
