import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treesense import make_tree, tree_group_penalty, tree_prox
from conftest import group_list, reference_tree_prox

# every tree with p <= 7 (acceptance criterion 5)
SMALL_TREES = [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (6, 2)]
# d in {2, 3, 4, 6}, every depth from L = 1 until p passes about 1000
LEVEL_TREES = ([(2, L) for L in range(1, 11)] + [(3, L) for L in range(1, 8)]
               + [(4, L) for L in range(1, 7)] + [(6, L) for L in range(1, 6)])


def test_penalty_values():
    t = make_tree(2, 2)
    assert tree_group_penalty(np.zeros(3), t) == 0.0
    assert tree_group_penalty(np.array([1.0, 0, 0]), t) == pytest.approx(1.0)
    assert tree_group_penalty(np.array([0.0, 2, 0]), t) == pytest.approx(4.0)


def test_prox_identity_at_zero_threshold(rng):
    t = make_tree(2, 3)
    for norm in ("l2", "linf"):
        for v in (rng.standard_normal(t.p), rng.standard_normal((t.p, 4))):
            out = tree_prox(v, t, 0.0, norm)
            assert np.array_equal(out, v) and out is not v


def test_prox_full_shrinkage(rng):
    # the root group holds every entry: a threshold at least the dual norm
    # of v (l2 for l2 groups, l1 for linf) zeroes it
    t = make_tree(2, 3)
    v = rng.standard_normal(t.p)
    for norm, dual_ord in (("l2", 2), ("linf", 1)):
        out = tree_prox(v, t, np.linalg.norm(v, ord=dual_ord) + 0.1, norm)
        assert np.all(out == 0.0)


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("shape", [(8,), (2,), (8, 2), (6, 2)],
                         ids=["long", "short", "long-rows", "short-rows"])
def test_penalty_kernels_reject_wrong_length(norm, shape):
    t = make_tree(2, 3)   # p = 7
    msg = re.escape(f"expected shape (7,) or (7, q), got {shape}")
    with pytest.raises(ValueError, match=msg):
        tree_prox(np.ones(shape), t, 0.1, norm)
    with pytest.raises(ValueError, match=msg):
        tree_group_penalty(np.ones(shape), t, norm)


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_prox_rejects_nan_and_negative_threshold(norm):
    t = make_tree(2, 2)
    for thr in (np.nan, -0.1):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            tree_prox(np.ones(t.p), t, thr, norm)


def test_prox_specific_small_instance():
    # T_{3,2}, v=(3,1,0), unit weights, threshold 0.5: the leaf groups shrink
    # v_2 to 0.5, then the root group shrinks (3, 0.5, 0) as a whole
    t = make_tree(2, 2)
    v = np.array([3.0, 1.0, 0.0])
    for norm, want in (("l2", np.array([3.0, 0.5, 0.0]) * (1 - 0.5 / np.sqrt(9.25))),
                       ("linf", np.array([2.5, 0.5, 0.0]))):
        assert np.max(np.abs(tree_prox(v, t, 0.5, norm) - want)) <= 1e-12


def test_prox_matrix_columns_match_vector_calls(rng):
    t = make_tree(2, 3)
    V = rng.standard_normal((t.p, 5))
    out = tree_prox(V, t, 0.3, "l2")
    for c in range(5):
        assert np.allclose(out[:, c], tree_prox(V[:, c], t, 0.3, "l2"))


def test_prox_zero_pattern_is_rooted_connected(rng):
    from treesense import is_tree_sparse
    t = make_tree(2, 4)
    for _ in range(50):
        v = rng.standard_normal(t.p) * rng.uniform(0.5, 3)
        out = tree_prox(v, t, rng.uniform(0.1, 1.0), "l2")
        assert is_tree_sparse(out, t, tol=1e-12)


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("threshold", [0.0, 0.5, np.inf])
def test_prox_and_penalty_of_zero_columns(norm, threshold):
    t = make_tree(2, 3)
    out = tree_prox(np.zeros((t.p, 0)), t, threshold, norm)
    assert out.shape == (t.p, 0)
    assert tree_group_penalty(np.zeros((t.p, 0)), t, norm).shape == (0,)


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("layout", ["fortran", "column_strided"])
def test_prox_and_penalty_of_a_strided_input_equal_those_of_its_c_copy(norm, layout):
    # both kernels work on C-ordered copies, whose level slices are
    # contiguous rows, whatever the input's layout
    t = make_tree(2, 6)
    base = np.random.default_rng(7).standard_normal((t.p, 128))
    v = np.asfortranarray(base[:, :64]) if layout == "fortran" else base[:, ::2]
    c = np.ascontiguousarray(v)
    for threshold in (0.0, 0.3):
        out = tree_prox(v, t, threshold, norm)
        assert out.flags.c_contiguous
        assert out.tobytes() == tree_prox(c, t, threshold, norm).tobytes()
    assert tree_group_penalty(v, t, norm).tobytes() == tree_group_penalty(c, t, norm).tobytes()


# ---------------------------------------------------------------------------
# The in-place l2 kernel against the level kernel it replaced, bit for bit
# ---------------------------------------------------------------------------

# d in {2, 3, 4} and L = 1..7, up to p = 5461
PARITY_TREES = [(d, L) for d in (2, 3, 4) for L in range(1, 8)]


def reference_bits(v, tree, threshold):
    # the reference divides threshold by every norm before discarding the
    # quotients of the small ones, so a huge threshold overflows there
    with np.errstate(all="ignore"):
        return reference_tree_prox(v, tree, threshold).tobytes()


@pytest.mark.parametrize("d,L", PARITY_TREES)
def test_l2_prox_bytes_equal_reference(d, L):
    """Seeded: q in {0, 1, 5, 64}, entries scaled by 1e-150 .. 1e150 with
    +0.0 and -0.0 among them and an all-zero column, thresholds 0, the
    smallest subnormal, 1e-300, two typical values, 1e300 and inf.  The
    kernel itself raises no floating-point warning on these (the suite
    turns one into an error)."""
    rng = np.random.default_rng([11, d, L])
    tree = make_tree(d, L)
    for q in (0, 1, 5, 64):
        for exponent in (-150, -40, 0, 40, 150):
            V = rng.standard_normal((tree.p, q)) * 10.0 ** exponent
            V[rng.random(V.shape) < 0.2] = 0.0
            V[rng.random(V.shape) < 0.2] = -0.0
            if q > 1:
                V[:, 1] = 0.0
            norm = float(np.sqrt(np.sum(V[:, :1] ** 2)))
            for thr in (0.0, 5e-324, 1e-300, 0.1 * norm, 0.7 * norm, 1e300, np.inf):
                want = reference_bits(V, tree, thr)
                assert tree_prox(V, tree, thr).tobytes() == want, (q, exponent, thr)
                if q == 1:
                    assert tree_prox(V[:, 0], tree, thr).tobytes() == want


def test_l2_prox_pins_signed_zeros_at_infinite_threshold():
    # every group's norm is below inf: each entry is multiplied by 0, and
    # keeps its sign
    v = np.array([1.0, -2.0, 0.0, 3.0, -0.0, 1.0, 2.0])
    out = tree_prox(v, make_tree(2, 3), np.inf)
    assert out.tobytes() == np.array([0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0]).tobytes()


def test_l2_prox_zero_threshold_zeroes_underflowing_groups():
    # 1e-170 squares to 0: a group whose energy underflows has norm 0, which
    # is not above threshold 0, so its scale is 0, as in the reference
    tree = make_tree(2, 2)
    v = np.array([1.0, 1e-170, -1e-170])
    out = tree_prox(v, tree, 0.0)
    assert out.tobytes() == np.array([1.0, 0.0, -0.0]).tobytes() == reference_bits(v, tree, 0.0)


@pytest.mark.parametrize("thr", [0.0, 0.5, 1e300, np.inf])
def test_l2_prox_nonfinite_entries_give_the_reference_bits(thr):
    """nan and inf entries are not rejected: a nan norm is not above the
    threshold (scale 0), an infinite one gives scale 1, and the result is
    the reference's, bit for bit, with nan left where the products make it."""
    tree = make_tree(2, 3)
    rng = np.random.default_rng(11)
    V = rng.standard_normal((tree.p, 6))
    V[3, 0], V[1, 1], V[6, 2], V[0, 3] = np.nan, np.inf, -np.inf, np.nan
    V[4, 4], V[2, 5] = 1e200, -np.nan
    with np.errstate(all="ignore"):
        out = tree_prox(V, tree, thr)
    assert out.tobytes() == reference_bits(V, tree, thr)
    if 0 < thr < np.inf:
        # column 0: the nan zeroes its ancestors' groups, nodes 1 and 2
        assert np.isnan(out[3, 0]) and out[0, 0] == out[1, 0] == 0.0


@st.composite
def prox_problems(draw):
    """A tree, a (p, q) matrix of any float64 entries (nan, inf, subnormals
    and signed zeros included) and a threshold, edge values weighted in."""
    d, L = draw(st.sampled_from([t for t in PARITY_TREES if t[0] ** t[1] <= 256]))
    tree = make_tree(d, L)
    q = draw(st.sampled_from([0, 1, 5, 64]))
    V = draw(arrays(np.float64, (tree.p, q), elements=st.floats(width=64)))
    thr = draw(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, np.inf])
               | st.floats(min_value=0.0))
    return tree, V, thr


@settings(max_examples=200, deadline=None)
@given(prox_problems())
def test_l2_prox_bytes_equal_reference_on_any_input(problem):
    tree, V, thr = problem
    with np.errstate(all="ignore"):
        out = tree_prox(V, tree, thr)
    assert out.tobytes() == reference_bits(V, tree, thr)


# ---------------------------------------------------------------------------
# Per-group reference formulas: one group at a time, deepest group first.
# ---------------------------------------------------------------------------

def per_group_penalty(a, tree, norm):
    """sum_g ||a_g||, one np.linalg.norm call per group."""
    ord_ = np.inf if norm == "linf" else 2
    return sum(np.linalg.norm(a[np.asarray(g) - 1], ord=ord_) for g in group_list(tree))


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


def per_group_prox(v, tree, threshold, norm):
    """Compose the single-group prox steps in group order.

    Returns the result and, per group, (indices, xi): xi is what the group's
    step removed, the candidate dual variable of that group.
    """
    u = np.array(v, dtype=float)
    duals = []
    for g in group_list(tree):
        idx = np.asarray(g) - 1
        z = u[idx].copy()
        if norm == "l2":
            nz = np.linalg.norm(z)
            u[idx] = z * (1.0 - threshold / nz) if nz > threshold else 0.0
        else:
            u[idx] = z - l1_ball(z, threshold)
        duals.append((idx, z - u[idx]))
    return u, duals


def prox_certificate(v, u, threshold, tree, norm, duals):
    """KKT certificate for u = prox(v) from candidate duals xi_g (on g).

    Each xi_g is first scaled into its ball ||xi_g||_* <= threshold
    (dual norm l2 for l2 groups, l1 for linf groups).  Returns
    ||v - u - sum xi_g|| and a bound on ||u - prox(v)||: for feasible xi,
    D(xi) = 0.5||v||^2 - 0.5||v - sum xi||^2 is at most the minimum of the
    1-strongly convex prox objective P, so the distance is at most
    sqrt(2 (P(u) - D(xi))).
    """
    dual_ord = 2 if norm == "l2" else 1
    total = np.zeros_like(v)
    for idx, xi in duals:
        size = np.linalg.norm(xi, ord=dual_ord)
        total[idx] += xi * min(1.0, threshold / size) if size > 0 else 0.0
    primal = (0.5 * np.sum((u - v) ** 2)
              + threshold * per_group_penalty(u, tree, norm))
    dual = 0.5 * np.sum(v ** 2) - 0.5 * np.sum((v - total) ** 2)
    return np.linalg.norm(v - u - total), np.sqrt(2.0 * max(primal - dual, 0.0))


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("d,L", SMALL_TREES)
def test_prox_certified_by_duality_gap(norm, d, L):
    """Per-group duals certify tree_prox: a KKT residual and a duality-gap
    bound on the distance to the exact prox."""
    rng = np.random.default_rng([5, d, L])
    tree = make_tree(d, L)
    for _ in range(40):
        v = 2.0 * rng.standard_normal(tree.p)
        thr = rng.uniform(0.05, 1.5)
        u = tree_prox(v, tree, thr, norm)
        _, duals = per_group_prox(v, tree, thr, norm)
        resid, dist = prox_certificate(v, u, thr, tree, norm, duals)
        assert resid <= 1e-10 and dist <= 1e-6


@pytest.mark.parametrize("d,L", LEVEL_TREES)
def test_level_kernels_match_per_group_formulas(d, L):
    rng = np.random.default_rng([7, d, L])
    tree = make_tree(d, L)
    V = 2.0 * rng.standard_normal((tree.p, 3))
    thr = rng.uniform(0.1, 2.0)
    for norm in ("l2", "linf"):
        ref = np.array([per_group_penalty(V[:, c], tree, norm) for c in range(3)])
        np.testing.assert_allclose(tree_group_penalty(V, tree, norm), ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(tree_group_penalty(V[:, 0], tree, norm), ref[0], rtol=1e-12, atol=0)
    tol = 1e-12 * np.max(np.abs(V))
    for norm in ("l2", "linf"):
        ref = np.column_stack([per_group_prox(V[:, c], tree, thr, norm)[0] for c in range(3)])
        np.testing.assert_allclose(tree_prox(V, tree, thr, norm), ref, rtol=0, atol=tol)
        np.testing.assert_allclose(tree_prox(V[:, 1], tree, thr, norm), ref[:, 1], rtol=0, atol=tol)
