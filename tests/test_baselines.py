import logging
import math
import re

import numpy as np
import pytest

from treesense import (TrainingSet, baselines, gaussian_ensemble, is_tree_sparse,
                       lasso_solve, make_tree, model_cosamp, pca_fit,
                       pca_reconstruct, random_tree_sparse, tree_project_batch)
from conftest import cd_lasso, reference_mfista, reference_model_cosamp


def test_ensemble_row_norms():
    phi = gaussian_ensemble(10, 50, budget=200.0, seed=3)
    norms = np.linalg.norm(phi, axis=1)
    assert np.allclose(norms, np.sqrt(200.0 / 10), rtol=1e-12)
    assert np.sum(phi**2) == pytest.approx(200.0)


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1.0])
def test_ensemble_rejects_a_budget_that_is_not_positive_and_finite(budget):
    with pytest.raises(ValueError, match=r"need m >= 1 and budget > 0"):
        gaussian_ensemble(3, 4, budget, seed=0)


def test_lasso_zero_when_penalty_dominates(rng):
    A = rng.standard_normal((12, 8))
    y = rng.standard_normal(12)
    lam = np.max(np.abs(A.T @ y)) * 1.0001
    assert np.all(lasso_solve(A[None], y[None, :, None], lam) == 0)


def test_lasso_overdetermined_noiseless(rng):
    t = make_tree(2, 3)
    phi = gaussian_ensemble(20, t.p, budget=20.0, seed=1)
    alpha = random_tree_sparse(t, 3, 0.5, 1.5, rng)
    y = phi @ alpha
    a_hat = lasso_solve(phi[None], y[None, :, None], 1e-9, max_iters=3000, tol=1e-15)[0, :, 0]
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
    mine = lasso_solve(A[None], y[None, :, None], 0.1, max_iters=5000, tol=1e-14)[0, :, 0]
    oracle = cd_lasso(A, y, 0.1)
    assert _relative_gap(A, y, 0.1, mine) <= 1e-8
    assert np.max(np.abs(mine - oracle)) < 1e-6


@pytest.mark.parametrize("m,p", [(20, 30), (12, 30)])
def test_lasso_both_gram_routes_match_coordinate_descent(rng, m, p):
    # p <= 2m forms K = A^T A once; p > 2m applies K as (D A^T) A
    A = rng.standard_normal((m, p))
    y = rng.standard_normal(m)
    lam = 0.2 * np.max(np.abs(A.T @ y))
    mine = lasso_solve(A[None], y[None, :, None], lam, max_iters=5000, tol=1e-14)[0, :, 0]
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
    _assert_kernel_matches_reference(monkeypatch, A, Y, lams, max_iters=300, tol=1e-6)


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
            X = lasso_solve(A[None], Y[None], lam, max_iters=max_iters)[0]
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
    batch = lasso_solve(A[None], Y[None], 0.2, max_iters=2000, tol=1e-14)[0]
    for c in range(4):
        single = lasso_solve(A[None], Y[None, :, c, None], 0.2, max_iters=2000,
                             tol=1e-14)[0, :, 0]
        assert np.max(np.abs(batch[:, c] - single)) < 1e-8


def test_cosamp_planted_recovery(rng):
    t = make_tree(2, 6)  # p = 63
    successes = 0
    for trial in range(10):
        phi = gaussian_ensemble(48, t.p, budget=float(t.p), seed=100 + trial)
        vec = random_tree_sparse(t, 8, 0.5, 1.5, rng)
        y = phi @ vec
        x_hat = model_cosamp(phi[None], y[None, :, None], 8, t, iters=20)[0, :, 0]
        assert is_tree_sparse(x_hat, t)
        if np.linalg.norm(y - phi @ x_hat) < 1e-6:
            successes += 1
            assert np.allclose(x_hat, vec, atol=1e-6)
    assert successes >= 8  # m >= 4k and well-conditioned: near-certain recovery


def test_cosamp_zero_measurements(rng):
    t = make_tree(2, 4)
    phi = gaussian_ensemble(10, t.p, budget=10.0, seed=0)
    assert np.all(model_cosamp(phi[None], np.zeros((1, 10, 1)), 3, t) == 0)
    # a stack of zero rows, as lasso_solve takes it
    assert np.all(model_cosamp(np.zeros((1, 0, t.p)), np.zeros((1, 0, 2)), 3, t) == 0)


def test_cosamp_k_equals_p_is_least_squares(rng):
    t = make_tree(2, 3)
    A = rng.standard_normal((20, t.p))
    alpha = rng.standard_normal(t.p)
    y = A @ alpha
    x_hat = model_cosamp(A[None], y[None, :, None], t.p, t, iters=5)[0, :, 0]
    assert np.max(np.abs(x_hat - alpha)) < 1e-8


def test_cosamp_stack_matches_unpadded_calls(monkeypatch, caplog):
    # three measurement counts zero-padded to the largest, with noiseless,
    # noisy and y = 0 columns: problems stop on the tolerance, on a stalled
    # residual, at iters and at once, in different rounds, and each must
    # equal its own unpadded one-problem call bit for bit
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
            Y[b, :m, c] = A[b, :m] @ random_tree_sparse(t, k, 0.5, 1.5, rng)
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
    sizes, solves, least_squares = [], [], baselines._least_squares

    def recording_project(V, tree, k):
        sizes.append(len(V))
        return tree_project_batch(V, tree, k)

    def recording_least_squares(As, ys):
        solves.extend([As.shape[1]] * len(As))
        return least_squares(As, ys)

    monkeypatch.setattr(baselines, "tree_project_batch", recording_project)
    monkeypatch.setattr(baselines, "_least_squares", recording_least_squares)
    with caplog.at_level(logging.INFO, logger="treesense.baselines"):
        out = model_cosamp(A, Y, k, t, iters=3)
    assert out.shape == (len(ms), t.p, q)
    # one batch per projection step, over the running problems only
    assert sizes[0] == 8 and sizes[::2] == sizes[1::2] and len(set(sizes)) == 3
    assert sorted(sizes, reverse=True) == sizes
    # one least-squares solve per running problem and round (8 + 6 + 3), in
    # batched groups, each on its problem's own m rows: a stopped problem
    # takes no solve
    assert len(solves) == sum(sizes[::2]) == 17
    assert set(solves) <= set(ms)
    counts = re.fullmatch(r"model_cosamp: of 9 problems, (\d+) met tol, (\d+) stalled, "
                          r"(\d+) stopped at iters=3, 1 had y = 0", caplog.messages[-1])
    assert counts and all(int(n) >= 1 for n in counts.groups())
    assert not out[1, :, 2].any()
    rounds = [model_cosamp(A[2:3], Y[2:3, :, 2:3], k, t, iters=n)[0, :, 0] for n in (1, 2, 3)]
    res = [np.linalg.norm(Y[2, :, 2] - A[2] @ x) for x in rounds]
    assert res[0] > res[1] > res[2] > 1e-6 * np.linalg.norm(v)
    for b, m in enumerate(ms):
        for c in range(q):
            own = model_cosamp(A[b:b + 1, :m], Y[b:b + 1, :m, c:c + 1], k, t, iters=3)[0, :, 0]
            assert out[b, :, c].tobytes() == own.tobytes(), (b, c)


def _cosamp_reference_case(rng):
    # compare's layout at a smaller scale: three measurement counts, two of
    # them below 3k, zero-padded to the largest; noiseless, noisy and y = 0
    # columns
    t, k, ms, q = make_tree(2, 6), 8, (12, 20, 31), 3
    A = np.zeros((len(ms), max(ms), t.p))
    Y = np.zeros((len(ms), max(ms), q))
    for b, m in enumerate(ms):
        A[b, :m] = gaussian_ensemble(m, t.p, budget=float(t.p), seed=[5, b])
        for c in range(q):
            Y[b, :m, c] = A[b, :m] @ random_tree_sparse(t, k, 0.5, 1.5, rng)
        Y[b, :m, 1] += 0.05 * rng.standard_normal(m)
    Y[0, :, 2] = 0
    return t, k, ms, A, Y


def _cosamp_ties_case(rng):
    # ties the projections must break alike: A = I makes the proxy the
    # residual itself, on a y of equal magnitudes, and node 3's column set
    # to node 2's makes siblings 2 and 3 tie in every proxy and their merged
    # least squares rank deficient
    t, k = make_tree(2, 5), 5
    eye = np.eye(t.p)
    dup = gaussian_ensemble(t.p, t.p, budget=float(t.p), seed=6)
    dup[:, 2] = dup[:, 1]
    A = np.stack([eye, dup])
    Y = np.stack([np.sign(rng.standard_normal((t.p, 2))),
                  dup @ np.where(rng.random((t.p, 2)) < 0.3, 1.0, 0.0)])
    return t, k, (t.p, t.p), A, Y


@pytest.mark.parametrize("case", [_cosamp_reference_case, _cosamp_ties_case],
                         ids=["padded_stack", "ties"])
def test_cosamp_matches_reference(rng, monkeypatch, caplog, case):
    # each problem against the one-problem reference of conftest, on its
    # own rows: the same support, stop reason and stop round, and the
    # coefficients within 1e-9 of the largest reference coefficient
    t, k, ms, A, Y = case(rng)
    sizes = []

    def recording_project(V, tree, k):
        sizes.append(len(V))
        return tree_project_batch(V, tree, k)

    monkeypatch.setattr(baselines, "tree_project_batch", recording_project)
    with caplog.at_level(logging.INFO, logger="treesense.baselines"):
        out = model_cosamp(A, Y, k, t, iters=3)
    reasons, rounds = [], []
    for b, m in enumerate(ms):
        for c in range(Y.shape[2]):
            x, reason, n = reference_model_cosamp(A[b, :m], Y[b, :m, c], k, t, iters=3)
            assert np.array_equal(out[b, :, c] != 0, x != 0), (b, c)
            assert np.max(np.abs(out[b, :, c] - x)) <= 1e-9 * np.max(np.abs(x)), (b, c)
            reasons.append(reason)
            rounds.append(n)
    # the running problems of round r are those the reference ran past r
    assert sizes[::2] == [sum(n > r for n in rounds) for r in range(len(sizes) // 2)]
    counts = np.bincount(reasons, minlength=4)
    assert caplog.messages[-1] == (
        f"model_cosamp: of {len(reasons)} problems, {counts[1]} met tol, {counts[2]} stalled, "
        f"{counts[0]} stopped at iters=3, {counts[3]} had y = 0")


def _conditioned(rng, n, s, cond):
    """An (n, s) matrix with singular values spread evenly on a log scale
    from 1 to 1/cond: its condition number is cond."""
    r = min(n, s)
    U = np.linalg.qr(rng.standard_normal((n, r)))[0]
    V = np.linalg.qr(rng.standard_normal((s, r)))[0]
    return (U * np.logspace(0, -np.log10(cond), r)) @ V.T


@pytest.mark.parametrize("n,s", [(20, 8), (8, 20)], ids=["tall", "wide"])
def test_least_squares_guard_routes_ill_conditioned_problems_to_lstsq(rng, monkeypatch, n, s):
    # one group of problems with cond(A_S) from 10 to 1e10, one with a
    # column (or row) repeated and one with a zero column (or row), whose
    # Gram matrix is singular and makes the batched solve raise.  The Gram
    # matrix squares cond(A_S), so the guard (1-norm condition of the Gram
    # matrix at most 1e8) must accept cond(A_S) <= 1e3 and send 1e6 and
    # above, the repeat and the zero to lstsq.
    # An accepted problem agrees with lstsq within 1e-8 relative (a Gram
    # condition number of at most 1e8 times float64's epsilon); a routed one
    # is lstsq's result bit for bit; and each equals its own one-problem call
    conds = [1e1, 1e2, 1e3, 1e6, 1e8, 1e10]
    repeat, zero = rng.standard_normal((2, n, s))
    if s <= n:
        repeat[:, 1], zero[:, 2] = repeat[:, 0], 0.0
    else:
        repeat[1], zero[2] = repeat[0], 0.0
    As = np.stack([_conditioned(rng, n, s, c) for c in conds] + [repeat, zero])
    ys = rng.standard_normal((len(As), n))
    expected = [np.linalg.lstsq(a, y, rcond=None)[0] for a, y in zip(As, ys)]
    routed, lstsq = [], np.linalg.lstsq

    def recording_lstsq(a, b, rcond=None):
        routed.extend(i for i, other in enumerate(As) if np.array_equal(a, other))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(zero.T @ zero if s <= n else zero @ zero.T, np.ones(min(n, s)))
    b = baselines._least_squares(As, ys)
    assert sorted(set(routed)) == [3, 4, 5, 6, 7]
    for i, want in enumerate(expected):
        if i in routed:
            assert b[i].tobytes() == want.tobytes(), i
        else:
            assert np.linalg.norm(b[i] - want) <= 1e-8 * np.linalg.norm(want), i
        assert b[i].tobytes() == baselines._least_squares(As[i:i + 1], ys[i:i + 1])[0].tobytes()


def test_cosamp_rejects_mismatched_stacks():
    # one layout only: a 2-D A or a 1-D or 2-D Y is rejected even where the
    # shapes agree
    t = make_tree(2, 3)
    for a_shape, y_shape in [((2, 5, 7), (3, 5, 1)), ((5, 7), (4,)), ((5, 7), (5,)),
                             ((5, 7), (5, 2)), ((1, 5, 7), (5, 2))]:
        with pytest.raises(ValueError, match=re.escape(
                f"A {a_shape} and Y {y_shape} do not match: need A (B, m, p) with "
                f"Y (B, m, q)")):
            model_cosamp(np.ones(a_shape), np.ones(y_shape), 2, t)


@pytest.mark.parametrize("arg", ["y", "A"])
def test_cosamp_rejects_non_finite_input(rng, arg):
    # as in lasso_solve: a nan y must fail, not come back as zeros or nans
    t = make_tree(2, 3)
    A = rng.standard_normal((1, 6, t.p))
    Y = rng.standard_normal((1, 6, 2))
    if arg == "y":
        Y[0, 2, 1] = np.nan
    else:
        A[0, 1, 3] = np.inf
    with pytest.raises(ValueError, match=f"^{arg} must be finite$"):
        model_cosamp(A, Y, 2, t)


def test_pca_exact_in_span(rng):
    tr = TrainingSet.from_raw(rng.standard_normal((20, 30)))
    model = pca_fit(tr)
    U = model.components[:, :4]
    assert np.max(np.abs(U.T @ U - np.eye(4))) <= 1e-8
    x = tr.mean + U @ np.array([1.0, -2.0, 0.5, 3.0])
    rec = pca_reconstruct(model, x, budget=50.0, noise=np.zeros((1, 4)))
    assert np.allclose(rec, x)


@pytest.mark.parametrize("budget", [-4.0, 0.0, math.nan, math.inf])
def test_pca_reconstruct_rejects_a_budget_that_is_not_positive_and_finite(rng, budget):
    tr = TrainingSet.from_raw(rng.standard_normal((10, 12)))
    model = pca_fit(tr)
    with pytest.raises(ValueError, match="budget must be positive and finite"):
        pca_reconstruct(model, rng.standard_normal(10), budget, np.zeros((1, 3)))


def test_pca_rejects_r_above_rank(rng):
    # rank-1 data: one principal direction, and no reconstruction from five
    X = np.outer(rng.standard_normal(10), rng.standard_normal(6))
    tr = TrainingSet(data=X - X.mean(axis=1, keepdims=True), mean=X.mean(axis=1))
    model = pca_fit(tr)
    assert model.components.shape == (10, 1)
    with pytest.raises(ValueError):
        pca_reconstruct(model, X[:, 0], 10.0, np.zeros((1, 5)))


@pytest.mark.parametrize("shape", [(3, 0), (3, 13), (2, 1, 4), (4,)],
                         ids=["r-0", "r-above-rank", "3-d", "1-d"])
def test_pca_reconstruct_rejects_noise_that_does_not_fit_the_model(rng, shape):
    # 15 centered columns in 12 dimensions: rank 12
    tr = TrainingSet.from_raw(rng.standard_normal((12, 15)))
    model = pca_fit(tr)
    assert model.components.shape == (12, 12)
    with pytest.raises(ValueError, match=re.escape(
            f"noise of shape {shape} does not fit a model of 12 components: need (T, r) "
            "with r in 1..12")):
        pca_reconstruct(model, tr.mean, 10.0, np.zeros(shape))


def test_pca_reconstruct_rows_equal_one_row_calls(rng):
    # a T-row call reconstructs row t exactly as a one-row call on noise[t]
    tr = TrainingSet.from_raw(rng.standard_normal((16, 20)))
    model = pca_fit(tr)
    x = rng.standard_normal(16)
    for r in (1, 5, 16):
        noise = rng.standard_normal((7, r))
        rows = pca_reconstruct(model, x, 24.0, noise)
        assert rows.shape == (7, 16)
        for t in range(7):
            assert np.array_equal(rows[t], pca_reconstruct(model, x, 24.0, noise[t:t + 1])[0])


def test_pca_noise_variance(rng):
    # E||x_hat - x_hat_noiseless||^2 = r^2 sigma^2 / R
    tr = TrainingSet.from_raw(rng.standard_normal((15, 40)))
    r, R = 6, 30.0
    model = pca_fit(tr)
    x = rng.standard_normal(15)
    clean = pca_reconstruct(model, x, R, np.zeros((1, r)))
    errs = np.sum((pca_reconstruct(model, x, R, rng.standard_normal((2000, r))) - clean) ** 2,
                  axis=1)
    assert np.mean(errs) == pytest.approx(r * r / R, rel=0.15)


def test_pca_components_maximize_captured_variance(rng):
    tr = TrainingSet.from_raw(rng.standard_normal((12, 25)))
    r = 3
    U = pca_fit(tr).components[:, :r]
    captured = np.sum((U.T @ tr.data) ** 2)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((12, r)))
        assert captured >= np.sum((Q.T @ tr.data) ** 2) - 1e-9


def test_lasso_per_column_lambda_matches_column_calls_unconverged(rng):
    A = rng.standard_normal((12, 9))
    Y = rng.standard_normal((12, 4))
    lams = np.array([0.02, 0.1, 0.5, 2.0]) * np.max(np.abs(A.T @ Y))
    batch = lasso_solve(A[None], Y[None], lams[None], max_iters=20, tol=0.0)[0]
    for c in range(4):
        single = lasso_solve(A[None], Y[None, :, c, None], lams[c], max_iters=20,
                             tol=0.0)[0, :, 0]
        assert np.max(np.abs(batch[:, c] - single)) <= 1e-12


def _stop_iteration(A, y, lam, max_iters, tol):
    """Fewest iterations after which a single-column solve returns its final
    answer (a stopped column no longer changes)."""
    A, Y = A[None], y[None, :, None]
    final = lasso_solve(A, Y, lam, max_iters=max_iters, tol=tol)
    lo, hi = 0, max_iters
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.array_equal(lasso_solve(A, Y, lam, max_iters=mid, tol=tol), final):
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
    batch = lasso_solve(A[None], Y[None], lams[None], max_iters=max_iters, tol=tol)[0]
    for c in range(4):
        single = lasso_solve(A[None], Y[None, :, c, None], lams[c], max_iters=max_iters,
                             tol=tol)[0, :, 0]
        assert np.max(np.abs(batch[:, c] - single)) <= 1e-12


@pytest.mark.parametrize("lam", [[[0.1, 0.2]], [[0.1, 0.2, 0.3, 0.4]], [0.1, 0.2, 0.3],
                                 [[0.1, 0.0, 0.3]], [[0.1, -0.2, 0.3]], [[0.1, np.nan, 0.3]]])
def test_lasso_rejects_bad_lambda_vector(rng, lam):
    # lam is a scalar or (B, q) = (1, 3); a (q,) vector is not taken
    A = rng.standard_normal((1, 6, 5))
    Y = rng.standard_normal((1, 6, 3))
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
        mine = lasso_solve(A[None], y[None, :, None], lam, max_iters=200, tol=0.0)[0, :, 0]
        gap = _lasso_objective(A, y, lam, mine) - _lasso_objective(A, y, lam, cd_lasso(A, y, lam))
        assert gap <= 1e-4


def test_lasso_stack_matches_one_problem_solves(rng, monkeypatch):
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
    stack = lasso_solve(A, Y, lams, max_iters=max_iters, tol=tol)
    assert stack.shape == (B, 8, q)
    for b in range(B):
        own = lasso_solve(A[b:b + 1], Y[b:b + 1], lams[b:b + 1], max_iters=max_iters, tol=tol)
        assert np.max(np.abs(stack[b] - own[0])) <= 1e-12
        for c in range(q):
            own = lasso_solve(A[b:b + 1], Y[b:b + 1, :, c:c + 1], lams[b, c],
                              max_iters=max_iters, tol=tol)
            assert np.max(np.abs(stack[b, :, c] - own[0, :, 0])) <= 1e-12
    _assert_kernel_matches_reference(monkeypatch, A, Y, lams, max_iters=max_iters, tol=tol)


@pytest.mark.parametrize("a_shape,y_shape,lam", [
    ((2, 6, 5), (6, 3), 0.1),            # stacked A, 2-D Y
    ((2, 6, 5), (3, 6, 3), 0.1),         # stack counts differ
    ((2, 6, 5), (2, 7, 3), 0.1),         # measurement counts differ
    ((6, 5), (2, 6, 3), 0.1),            # 2-D A, stacked Y
    ((1, 2, 6, 5), (1, 2, 6, 3), 0.1),   # no such stack
    ((2, 6, 5), (2, 6, 3), np.full((3, 3), 0.1)),
    ((2, 6, 5), (2, 6, 3), np.full((2, 2), 0.1)),
    ((2, 6, 5), (2, 6, 3), np.full((2, 3, 1), 0.1)),
    ((6, 5), (6, 3), 0.1),               # one problem, not stacked
    ((6, 5), (6,), 0.1),
    ((2, 6, 5), (2, 6, 3), np.full(3, 0.1)),   # one lambda per column, not per pair
])
def test_lasso_rejects_mismatched_stack_shapes(rng, a_shape, y_shape, lam):
    with pytest.raises(ValueError):
        lasso_solve(rng.standard_normal(a_shape), rng.standard_normal(y_shape), lam)


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
        own = lasso_solve(A[b:b + 1, :m], Y[b:b + 1, :m], lams[b:b + 1], max_iters=max_iters,
                          tol=tol)[0]
        assert np.max(np.abs(padded[b] - own)) <= 1e-12


def _assert_kernel_matches_reference(monkeypatch, A, Y, lam, **kwargs):
    """lasso_solve(A, Y, lam) equals, value for value, what it returns with
    its MFISTA kernel swapped for the reference kernel of conftest; a zero
    may come back as +0.0 where the reference's copysign gave -0.0, which
    np.array_equal does not tell apart.  Returns the reference result."""
    mine = lasso_solve(A, Y, lam, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "_mfista", reference_mfista)
        ref = lasso_solve(A, Y, lam, **kwargs)
    assert np.array_equal(mine, ref)
    return ref


def _compare_stack_case(rng, monkeypatch):
    # compare's shape: three measurement counts x three budgets, zero-padded
    # to the largest m, with one lambda per (stack, column) pair
    ms, p, q = (31, 63, 127), 127, 4
    A = np.zeros((9, max(ms), p))
    Y = np.zeros((9, max(ms), q))
    for b in range(9):
        m = ms[b // 3]
        A[b, :m] = rng.standard_normal((m, p)) * (b % 3 + 1)
        Y[b, :m] = A[b, :m] @ np.where(rng.random((p, q)) < 0.1, 1.0, 0.0) \
            + 0.1 * rng.standard_normal((m, q))
    lams = np.array([0.001, 0.01, 0.05, 0.2]) * np.max(np.abs(A.transpose(0, 2, 1) @ Y),
                                                      axis=(1, 2))[:, None]
    return A, Y, lams, dict(max_iters=200)


def _factored_route_case(rng, monkeypatch):
    # p > 2m applies K as (D A^T) A
    A = rng.standard_normal((12, 30))
    Y = rng.standard_normal((12, 5))
    lams = rng.uniform(0.05, 0.5, 5) * np.max(np.abs(A.T @ Y))
    return A[None], Y[None], lams[None], dict(max_iters=300)


def _late_backtracking_case(rng, monkeypatch):
    # columns of A scaled from 1 to 100: L keeps doubling after iteration 1
    A = rng.standard_normal((20, 30)) * np.logspace(0, 2, 30)
    Y = rng.standard_normal((20, 3))
    lam = 0.1 * np.max(np.abs(A.T @ Y))
    applies = []

    def counting_reference(apply_K, *args):
        def counted(D):
            applies[-1] += 1
            return apply_K(D)
        return reference_mfista(counted, *args)

    with monkeypatch.context() as patch:
        patch.setattr(baselines, "_mfista", counting_reference)
        for max_iters in (1, 100):
            applies.append(0)
            lasso_solve(A[None], Y[None], lam, max_iters=max_iters, tol=0.0)
    assert applies[1] - applies[0] > 99   # more than one K-apply per later step
    return A[None], Y[None], lam, dict(max_iters=100, tol=0.0)


def _rejected_step_case(rng, monkeypatch):
    # with tol = 0 no pair freezes, so a kept iterate that stays put for a
    # step and moves later was a rejected monotone step: the np.where branch
    A = rng.standard_normal((15, 25))
    Y = rng.standard_normal((15, 3))
    lam = 0.1 * np.max(np.abs(A.T @ Y))
    n = 40
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "_mfista", reference_mfista)
        kept = [lasso_solve(A[None], Y[None], lam, max_iters=i, tol=0.0)[0]
                for i in range(1, n + 1)]
    rejected = [(i, c) for i in range(n - 2) for c in range(3)
                if np.array_equal(kept[i][:, c], kept[i + 1][:, c])
                and not np.array_equal(kept[i + 1][:, c], kept[-1][:, c])]
    assert rejected
    return A[None], Y[None], lam, dict(max_iters=n, tol=0.0)


@pytest.mark.parametrize("case", [_compare_stack_case, _factored_route_case,
                                  _late_backtracking_case, _rejected_step_case],
                         ids=["compare_stack", "factored_route", "late_backtracking",
                              "rejected_step"])
def test_lasso_kernel_matches_reference(rng, monkeypatch, case):
    # each case asserts the path it is there to reach; freezing, dropped
    # columns and several blocks are covered by the stack and block tests
    A, Y, lam, kwargs = case(rng, monkeypatch)
    ref = _assert_kernel_matches_reference(monkeypatch, A, Y, lam, **kwargs)
    assert np.count_nonzero(ref) > 0


@pytest.mark.parametrize("arg,lam", [("lam", np.inf), ("y", 0.1), ("A", 0.1)])
def test_lasso_rejects_non_finite_input(rng, arg, lam):
    A = rng.standard_normal((6, 5))
    y = rng.standard_normal(6)
    if arg == "y":
        y[2] = np.nan
    elif arg == "A":
        A[1, 3] = np.inf
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        lasso_solve(A[None], y[None, :, None], lam)
