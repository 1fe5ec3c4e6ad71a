import numpy as np
import pytest

from treesense import groups_of, make_tree, tree_group_penalty, tree_prox
from conftest import group_list

# every tree with p <= 7 (acceptance criterion 5)
SMALL_TREES = [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (6, 2)]
# d in {2, 3, 4, 6}, every depth from L = 1 until p passes about 1000
LEVEL_TREES = ([(2, L) for L in range(1, 11)] + [(3, L) for L in range(1, 8)]
               + [(4, L) for L in range(1, 7)] + [(6, L) for L in range(1, 6)])


def cvx_prox(v, groups, threshold, norm):
    """Independent convex-solver oracle for the prox objective (skips the
    calling test when cvxpy is not installed)."""
    cp = pytest.importorskip("cvxpy")
    u = cp.Variable(len(v))
    pen = 0
    for grp, w in group_list(groups):
        idx = [i - 1 for i in grp]
        pen = pen + w * cp.norm(u[idx], 2 if norm == "l2" else "inf")
    prob = cp.Problem(cp.Minimize(0.5 * cp.sum_squares(u - v) + threshold * pen))
    prob.solve(solver=cp.CLARABEL)
    return u.value


def test_penalty_values():
    t = make_tree(2, 2)
    g = groups_of(t)
    assert tree_group_penalty(np.zeros(3), g) == 0.0
    assert tree_group_penalty(np.array([1.0, 0, 0]), g) == pytest.approx(1.0)
    assert tree_group_penalty(np.array([0.0, 2, 0]), g) == pytest.approx(4.0)


def test_prox_identity_at_zero_threshold(rng):
    t = make_tree(2, 3)
    g = groups_of(t)
    v = rng.standard_normal(7)
    assert np.array_equal(tree_prox(v, g, 0.0), v)


def test_prox_full_shrinkage():
    # single effective group when only the root weight is nonzero
    t = make_tree(2, 2)
    g = groups_of(t, weights=[1.0, 0.0, 0.0])
    v = np.array([0.3, -0.2, 0.1])
    out = tree_prox(v, g, np.linalg.norm(v) + 0.1, "l2")
    assert np.allclose(out, 0.0)


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("d,L", [(2, 2), (2, 3), (3, 2)])
def test_prox_matches_convex_solver(norm, d, L, rng):
    t = make_tree(d, L)
    g = groups_of(t)
    for _ in range(25):
        v = 2.0 * rng.standard_normal(t.p)
        thr = rng.uniform(0.05, 1.2)
        mine = tree_prox(v, g, thr, norm)
        oracle = cvx_prox(v, g, thr, norm)
        assert np.max(np.abs(mine - oracle)) < 1e-4


def test_prox_specific_small_instance():
    # T_{3,2}, v=(3,1,0), unit weights, l2, threshold 0.5
    t = make_tree(2, 2)
    g = groups_of(t)
    v = np.array([3.0, 1.0, 0.0])
    mine = tree_prox(v, g, 0.5, "l2")
    oracle = cvx_prox(v, g, 0.5, "l2")
    assert np.max(np.abs(mine - oracle)) < 1e-4


def test_prox_matrix_columns_match_vector_calls(rng):
    t = make_tree(2, 3)
    g = groups_of(t)
    V = rng.standard_normal((t.p, 5))
    out = tree_prox(V, g, 0.3, "l2")
    for c in range(5):
        assert np.allclose(out[:, c], tree_prox(V[:, c], g, 0.3, "l2"))


def test_prox_zero_pattern_is_rooted_connected(rng):
    from treesense import is_tree_sparse
    t = make_tree(2, 4)
    g = groups_of(t)
    for _ in range(50):
        v = rng.standard_normal(t.p) * rng.uniform(0.5, 3)
        out = tree_prox(v, g, rng.uniform(0.1, 1.0), "l2")
        assert is_tree_sparse(out, t, tol=1e-12)


# ---------------------------------------------------------------------------
# Per-group reference formulas: one group at a time, deepest group first.
# ---------------------------------------------------------------------------

def per_group_penalty(a, groups, norm):
    """sum_g w_g * ||a_g||, one np.linalg.norm call per group."""
    ord_ = np.inf if norm == "linf" else 2
    return sum(w * np.linalg.norm(a[np.asarray(g) - 1], ord=ord_)
               for g, w in group_list(groups))


def l1_ball(z, radius):
    """Projection onto the l1 ball, by bisection on the soft threshold."""
    a = np.abs(z)
    if a.sum() <= radius:
        return z.copy()
    lo, hi = 0.0, float(a.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # lo and hi are adjacent: no later step moves them
            break
        lo, hi = (mid, hi) if np.maximum(a - mid, 0.0).sum() > radius else (lo, mid)
    return np.sign(z) * np.maximum(a - hi, 0.0)


def per_group_prox(v, groups, threshold, norm):
    """Compose the single-group prox steps in group order.

    Returns the result and, per group, (indices, bound, xi): xi is what the
    group's step removed, the candidate dual variable of that group, and
    bound = threshold * w_g the radius of its dual-norm ball.
    """
    u = np.array(v, dtype=float)
    duals = []
    for g, w in group_list(groups):
        idx, t = np.asarray(g) - 1, threshold * w
        z = u[idx].copy()
        if norm == "l2":
            nz = np.linalg.norm(z)
            u[idx] = z * (1.0 - t / nz) if nz > t else 0.0
        else:
            u[idx] = z - l1_ball(z, t)
        duals.append((idx, t, z - u[idx]))
    return u, duals


def prox_certificate(v, u, threshold, groups, norm, duals):
    """KKT certificate for u = prox(v) from candidate duals xi_g (on g).

    Each xi_g is first scaled into its ball ||xi_g||_* <= threshold * w_g
    (dual norm l2 for l2 groups, l1 for linf groups).  Returns
    ||v - u - sum xi_g|| and a bound on ||u - prox(v)||: for feasible xi,
    D(xi) = 0.5||v||^2 - 0.5||v - sum xi||^2 is at most the minimum of the
    1-strongly convex prox objective P, so the distance is at most
    sqrt(2 (P(u) - D(xi))).
    """
    dual_ord = 2 if norm == "l2" else 1
    total = np.zeros_like(v)
    for idx, bound, xi in duals:
        size = np.linalg.norm(xi, ord=dual_ord)
        total[idx] += xi * min(1.0, bound / size) if size > 0 else 0.0
    primal = (0.5 * np.sum((u - v) ** 2)
              + threshold * per_group_penalty(u, groups, norm))
    dual = 0.5 * np.sum(v ** 2) - 0.5 * np.sum((v - total) ** 2)
    return np.linalg.norm(v - u - total), np.sqrt(2.0 * max(primal - dual, 0.0))


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("d,L", SMALL_TREES)
def test_prox_certified_by_duality_gap(norm, d, L):
    """Oracle without a convex solver: per-group duals certify tree_prox."""
    rng = np.random.default_rng([5, d, L])
    tree = make_tree(d, L)
    for weights in (None, rng.uniform(0.0, 2.0, tree.p) * (rng.random(tree.p) > 0.3)):
        g = groups_of(tree, weights)
        for _ in range(40):
            v = 2.0 * rng.standard_normal(tree.p)
            thr = rng.uniform(0.05, 1.5)
            u = tree_prox(v, g, thr, norm)
            _, duals = per_group_prox(v, g, thr, norm)
            resid, dist = prox_certificate(v, u, thr, g, norm, duals)
            assert resid <= 1e-10 and dist <= 1e-6


@pytest.mark.parametrize("d,L", LEVEL_TREES)
def test_level_kernels_match_per_group_formulas(d, L):
    rng = np.random.default_rng([7, d, L])
    tree = make_tree(d, L)
    for weights in (None, rng.uniform(0.0, 2.0, tree.p) * (rng.random(tree.p) > 0.3)):
        g = groups_of(tree, weights)
        V = 2.0 * rng.standard_normal((tree.p, 3))
        thr = rng.uniform(0.1, 2.0)
        for norm in ("l2", "linf"):
            ref = np.array([per_group_penalty(V[:, c], g, norm) for c in range(3)])
            np.testing.assert_allclose(tree_group_penalty(V, g, norm), ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(tree_group_penalty(V[:, 0], g, norm), ref[0], rtol=1e-12, atol=0)
        tol = 1e-12 * np.max(np.abs(V))
        for norm in ("l2", "linf"):
            ref = np.column_stack([per_group_prox(V[:, c], g, thr, norm)[0] for c in range(3)])
            np.testing.assert_allclose(tree_prox(V, g, thr, norm), ref, rtol=0, atol=tol)
            np.testing.assert_allclose(tree_prox(V[:, 1], g, thr, norm), ref[:, 1], rtol=0, atol=tol)
