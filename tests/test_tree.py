import re
from collections import Counter

import numpy as np
import pytest

from treesense import (Dictionary, make_tree,
                       random_tree_sparse, random_tree_sparse_batch,
                       is_tree_sparse, tree_project_batch, tree_sparse_rows)
from conftest import (enumerate_rooted_subtrees, best_subtree_energy,
                      reference_project, reference_random_tree_sparse,
                      reference_random_tree_sparse_batch, support_of, uniform_growth_law)


def project_one(v, tree, k):
    """(values, support) of tree_project_batch on the one row v: row 0 of
    its values, and the node ids of row 0 of its mask, which keeps a
    zero-valued ancestor of a retained node."""
    values, mask = tree_project_batch(v[None], tree, k)
    return values[0], set((np.flatnonzero(mask[0]) + 1).tolist())


def test_make_tree_binary_three_levels():
    t = make_tree(2, 3)
    assert t.p == 7
    assert t.children(1) == (2, 3)
    assert t.children(3) == (6, 7)


def test_make_tree_seven_levels():
    assert make_tree(2, 7).p == 127


def test_make_tree_ternary():
    t = make_tree(3, 2)
    assert t.p == 4
    assert t.children(1) == (2, 3, 4)


@pytest.mark.parametrize("d,L", [(2, 1), (2, 5), (3, 3), (4, 2)])
def test_parent_child_inverse(d, L):
    t = make_tree(d, L)
    assert t.p == sum(d**lvl for lvl in range(L))
    for i in range(1, t.p + 1):
        for c in t.children(i):
            assert t.parent(c) == i


def test_make_tree_rejects_bad_args():
    with pytest.raises(ValueError):
        make_tree(1, 3)
    with pytest.raises(ValueError):
        make_tree(2, 0)
    with pytest.raises(ValueError):
        make_tree(2, 80)  # index overflow


def test_random_tree_sparse_extremes(rng):
    t = make_tree(2, 3)
    assert support_of(random_tree_sparse(t, 1, 1, 1, rng)) == {1}
    assert support_of(random_tree_sparse(t, t.p, 1, 1, rng)) == set(range(1, 8))


def test_random_tree_sparse_always_connected(rng):
    # every rooted connected 3-subtree of T_{7,2} contains node 1 and a child of 1
    t = make_tree(2, 3)
    for _ in range(50):
        vec = random_tree_sparse(t, 3, 0.5, 2.0, rng)
        assert 1 in support_of(vec)
        assert support_of(vec) & {2, 3}
        assert is_tree_sparse(vec, t)
        assert np.abs(vec[vec != 0]).min() >= 0.5


def test_random_tree_sparse_reaches_every_subtree(rng):
    t = make_tree(2, 3)
    seen = set()
    for _ in range(2000):
        seen.add(frozenset(support_of(random_tree_sparse(t, 3, 1, 1, rng))))
    expected = {s for s in enumerate_rooted_subtrees(t, 3) if len(s) == 3}
    assert seen == expected


@pytest.mark.parametrize("d,L,k,max_depth", [(2, 5, 7, None), (2, 10, 31, 9), (3, 4, 12, 3),
                                             (4, 3, 21, None), (2, 4, 15, None), (3, 5, 1, 2)])
def test_random_tree_sparse_equals_scalar_reference(d, L, k, max_depth):
    # the batched grower at one trial draws exactly what the scalar grower drew
    t = make_tree(d, L)
    for seed in range(40):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        vec = random_tree_sparse(t, k, 0.5, 2.0, rng, max_depth=max_depth)
        values, support = reference_random_tree_sparse(t, k, 0.5, 2.0, ref_rng, max_depth)
        assert np.array_equal(vec.view(np.int64), values.view(np.int64))
        assert support_of(vec) == support
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("trials", [0, 2, 7, 300])
@pytest.mark.parametrize("d,L,k,max_depth", [(2, 5, 7, None), (2, 10, 31, 9), (3, 4, 13, 3),
                                             (4, 3, 21, None), (3, 5, 1, 2)])
def test_random_tree_sparse_batch_equals_list_reference(d, L, k, max_depth, trials):
    # every row of a batch draws exactly what the per-row list grower drew,
    # and tree_sparse_rows densifies it to the (trials, p) rows a per-row
    # scatter of the list grower's draws gives
    t = make_tree(d, L)
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        nodes, values = random_tree_sparse_batch(t, k, 0.5, 2.0, rng, trials,
                                                 max_depth=max_depth)
        ref_nodes, ref_values = reference_random_tree_sparse_batch(t, k, 0.5, 2.0, ref_rng,
                                                                   trials, max_depth)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(values.view(np.int64), ref_values.view(np.int64))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        want = np.zeros((trials, t.p))
        for row in range(trials):
            want[row, ref_nodes[row] - 1] = ref_values[row]
        assert np.array_equal(tree_sparse_rows(t, nodes, values).view(np.int64),
                              want.view(np.int64))


@pytest.mark.parametrize("d,L,k,max_depth", [(2, 5, 7, None), (2, 10, 31, 9), (3, 4, 13, 3),
                                             (3, 5, 1, 2)])
def test_random_tree_sparse_batch_with_generators_equals_one_row_calls(d, L, k, max_depth):
    # with a list of generators, row t draws on rng[t] what a one-row call
    # on it draws, and leaves it in the same state
    t = make_tree(d, L)
    gens, refs = ([np.random.default_rng([5, row]) for row in range(6)] for _ in range(2))
    nodes, values = random_tree_sparse_batch(t, k, 0.5, 2.0, gens, 6, max_depth=max_depth)
    for row, ref in enumerate(refs):
        own_nodes, own_values = random_tree_sparse_batch(t, k, 0.5, 2.0, ref, 1, max_depth)
        assert nodes[row].tobytes() == own_nodes[0].tobytes()
        assert values[row].tobytes() == own_values[0].tobytes()
    assert [g.random() for g in gens] == [r.random() for r in refs]


@pytest.mark.parametrize("d,L,k,max_depth", [(2, 4, 4, None), (2, 4, 4, 3), (3, 3, 4, None)])
def test_random_tree_sparse_batch_follows_uniform_growth_law(d, L, k, max_depth):
    # support frequencies of 40,000 draws against the exact law of growth by
    # uniform boundary picks: how a pick is drawn may change, the law not
    t = make_tree(d, L)
    law = uniform_growth_law(t, k, max_depth)
    cap = t.p if max_depth is None else (d**max_depth - 1) // (d - 1)
    assert set(law) == {s for s in enumerate_rooted_subtrees(t, k)
                        if len(s) == k and max(s) <= cap}
    assert abs(sum(law.values()) - 1) < 1e-12
    n = 40_000
    nodes, _ = random_tree_sparse_batch(t, k, 1, 1, np.random.default_rng(15), n,
                                        max_depth=max_depth)
    counts = Counter(frozenset(row) for row in nodes.tolist())
    assert set(counts) <= set(law)
    expected = n * np.array(list(law.values()))
    observed = np.array([counts[s] for s in law])
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # Wilson-Hilferty upper 1e-4 quantile (z = 3.719) of chi-square, df = |law| - 1
    df = len(law) - 1
    assert chi2 <= df * (1 - 2 / (9 * df) + 3.719 * (2 / (9 * df)) ** 0.5) ** 3, (chi2, df)


class _TopUniform:
    """A generator whose uniforms are all 1 - 2**-53, the largest double
    below 1; every other draw comes from a seeded Generator."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def random(self, size):
        return np.full(size, 1 - 2**-53)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_random_tree_sparse_top_uniform_picks_last_entry():
    # the largest uniform times a list length rounds below the length, so
    # floor(u * len) needs no clamp: boundary [2, 3, 4] -> 4, then
    # [2, 3, 11, 12, 13] -> 13
    assert all(int((1 - 2**-53) * n) == n - 1 for n in range(1, 100_000))
    t = make_tree(3, 3)
    nodes, _ = random_tree_sparse_batch(t, 3, 1, 1, _TopUniform(), 2)
    assert nodes.tolist() == [[1, 4, 13]] * 2
    assert reference_random_tree_sparse_batch(t, 3, 1, 1, _TopUniform(), 2)[0].tolist() == \
        nodes.tolist()


@pytest.mark.parametrize("d,L,k,max_depth", [(2, 10, 31, 9), (3, 4, 13, 3), (4, 3, 5, None)])
def test_random_tree_sparse_batch_rows_are_rooted_subtrees(d, L, k, max_depth, rng):
    t = make_tree(d, L)
    nodes, values = random_tree_sparse_batch(t, k, 0.5, 2.0, rng, 300, max_depth=max_depth)
    assert nodes.shape == values.shape == (300, k)
    assert np.all((np.abs(values) >= 0.5) & (np.abs(values) <= 2.0))
    cap = t.p if max_depth is None else (d**max_depth - 1) // (d - 1)
    assert nodes.min() >= 1 and nodes.max() <= cap
    for row in nodes.tolist():
        assert row[0] == 1 and len(set(row)) == k
        # grown in order: each node's parent was added before it
        assert all((j - 2) // d + 1 in row[:i] for i, j in enumerate(row) if i)


def test_dictionary_compares_by_identity():
    t = make_tree(2, 3)
    D, twin = Dictionary(atoms=np.eye(t.p), tree=t), Dictionary(atoms=np.eye(t.p), tree=t)
    assert D == D and D != twin
    assert hash(D) == hash(D)
    assert len({D, twin}) == 2


def test_random_tree_sparse_rejects_bad_k(rng):
    t = make_tree(2, 3)
    with pytest.raises(ValueError):
        random_tree_sparse(t, 8, 1, 1, rng)


def test_random_tree_sparse_depth_restriction(rng):
    # levels of 1, 3, 9 and 27 nodes: depth < max_depth holds n nodes
    t = make_tree(3, 4)
    for max_depth, n in ((0, 1), (1, 1), (2, 4), (3, 13), (9, 40)):
        vec = random_tree_sparse(t, n, 1, 1, rng, max_depth=max_depth)
        assert support_of(vec) == set(range(1, n + 1))
        if n < t.p:
            with pytest.raises(ValueError, match="depth restriction"):
                random_tree_sparse(t, n + 1, 1, 1, rng, max_depth=max_depth)


def test_is_tree_sparse_cases():
    t = make_tree(2, 3)
    assert is_tree_sparse(np.zeros(7), t)
    v = np.zeros(7)
    v[2] = 1.0  # node 3 alone: parent missing
    assert not is_tree_sparse(v, t)
    v = np.zeros(7)
    v[[0, 1, 4]] = 1.0  # support {1,2,5}: chain 5->2->1
    assert is_tree_sparse(v, t)


@pytest.mark.parametrize("shape", [(10,), (8,), (3,), (7, 2)])
def test_is_tree_sparse_rejects_wrong_shape(shape):
    t = make_tree(2, 3)   # p = 7
    with pytest.raises(ValueError, match=re.escape(f"expected v of shape (7,), got {shape}")):
        is_tree_sparse(np.ones(shape), t)


def test_tree_project_examples():
    t = make_tree(2, 3)
    v = np.array([5.0, 1, 3, 0, 0, 0, 0])
    assert project_one(v, t, 2)[1] == {1, 3}
    assert project_one(v, t, 1)[1] == {1}
    full_values, full_support = project_one(v, t, t.p)
    assert full_support == {1, 2, 3}
    assert np.array_equal(full_values, v)
    # energy 2 is reached by {1, 3} at budget 2 and by {1, 2, 4} at budget 3:
    # the smallest budget wins
    tie = np.array([1.0, 0, 1, 1, 0, 0, 0])
    assert project_one(tie, t, 3)[1] == {1, 3}


@pytest.mark.parametrize("d,L", [(2, 3), (2, 4), (3, 3)])
def test_tree_project_exact_matches_enumeration(d, L, rng):
    t = make_tree(d, L)
    for _ in range(10):
        v = rng.standard_normal(t.p)
        for k in range(1, t.p + 1):
            values, support = project_one(v, t, k)
            got = sum(v[i - 1] ** 2 for i in support)
            assert got == pytest.approx(best_subtree_energy(t, v, k), abs=1e-9)
            assert len(support) <= k
            assert is_tree_sparse(values, t)


# ---------------------------------------------------------------------------
# The level-synchronous projection of one row against conftest's per-node reference
# DP: the same support and values, ties included.
# ---------------------------------------------------------------------------

# d in {2, 3, 4, 6}, every depth until p passes about 1000
PROJECTION_TREES = ([(2, L) for L in range(1, 11)] + [(3, L) for L in range(1, 8)]
                    + [(4, L) for L in range(1, 7)] + [(6, L) for L in range(1, 6)])


@pytest.mark.parametrize("d,L", PROJECTION_TREES)
def test_level_projection_matches_per_node_dp(d, L):
    rng = np.random.default_rng([3, d, L])
    t = make_tree(d, L)
    if t.p <= 40:
        ks = range(1, t.p + 1)
    else:
        ks = sorted({1, d + 1, t.p // 10, t.p // 4, t.p // 2, t.p,
                     *rng.integers(1, t.p + 1, 2).tolist()})
    dense = 2.0 * rng.standard_normal(t.p)
    sparse = np.where(rng.random(t.p) < 0.6, 0.0, dense)  # like model_cosamp's b
    ties = np.round(dense, 1)
    for v in (dense, sparse, ties):
        for k in ks:
            got_values, got_support = project_one(v, t, k)
            support, values = reference_project(v, t, k)
            assert got_support == support, (k, sorted(got_support ^ support))
            assert np.array_equal(got_values, values)


@pytest.mark.parametrize("d,L", PROJECTION_TREES)
def test_batched_projection_rows_match_per_node_dp(d, L):
    # one stacked call over dense, sparse, tied and all-zero rows; each row
    # must be its own per-node projection, values bit for bit
    rng = np.random.default_rng([4, d, L])
    t = make_tree(d, L)
    dense = 2.0 * rng.standard_normal(t.p)
    V = np.stack([dense, np.where(rng.random(t.p) < 0.6, 0.0, dense),
                  np.round(dense, 1), np.zeros(t.p)])
    ks = {1, d + 1, t.p // 4, int(rng.integers(1, t.p + 1))}
    for k in sorted(k for k in ks if 1 <= k <= t.p):
        values, support = tree_project_batch(V, t, k)
        assert values.shape == support.shape == V.shape and support.dtype == bool
        for v, got_values, got_support in zip(V, values, support):
            ref_support, ref_values = reference_project(v, t, k)
            assert set((np.flatnonzero(got_support) + 1).tolist()) == ref_support, k
            assert got_values.tobytes() == ref_values.tobytes()
        assert not support[3].any()


def _tie_rows(t):
    # equal energies everywhere; equal energies with zeros among them; equal
    # leaves under zero ancestors; and an all-zero row
    signs = np.where(np.arange(t.p) % 3 == 0, -1.0, 1.0)
    deep = np.zeros(t.p)
    deep[-3:] = 2.0
    deep[t.level_starts[-2]] = -2.0
    return np.stack([np.ones(t.p), np.where(np.arange(t.p) % 4 == 1, 0.0, signs), deep,
                     np.zeros(t.p)])


# the supports tree_project_batch gave on _tie_rows when its DP still stored
# a split table for every node, per k and row
TIE_SUPPORTS = {
    (2, 4): {1: [[1], [1], [], []],
             2: [[1, 2], [1, 3], [], []],
             3: [[1, 2, 4], [1, 3, 7], [], []],
             5: [[1, 2, 4, 8, 9], [1, 3, 7, 15], [1, 3, 7, 14, 15], []],
             8: [[1, 2, 4, 5, 8, 9, 10, 11], [1, 2, 3, 4, 5, 8, 9, 11], [1, 3, 6, 7, 13, 14, 15],
                 []]},
    (3, 3): {1: [[1], [1], [], []],
             2: [[1, 2], [1, 3], [], []],
             3: [[1, 2, 5], [1, 3, 8], [1, 2, 5], []],
             5: [[1, 2, 5, 6, 7], [1, 3, 4, 8, 9], [1, 4, 11, 12, 13], []],
             8: [[1, 2, 3, 5, 6, 7, 8, 9], [1, 3, 4, 8, 9, 11, 12, 13], [1, 2, 4, 5, 11, 12, 13],
                 []]},
}


@pytest.mark.parametrize("d,L", sorted(TIE_SUPPORTS))
def test_tree_project_batch_ties_and_zeros_keep_their_supports(d, L):
    t = make_tree(d, L)
    V = _tie_rows(t)
    for k, want in TIE_SUPPORTS[d, L].items():
        support = tree_project_batch(V, t, k)[1]
        assert [(np.flatnonzero(row) + 1).tolist() for row in support] == want, k
        assert [sorted(reference_project(v, t, k)[0]) for v in V] == want, k


def test_tree_project_batch_rejects_bad_shapes():
    t = make_tree(2, 3)
    for bad in (np.zeros(t.p), np.zeros((2, t.p + 1)), np.zeros((1, 2, t.p))):
        with pytest.raises(ValueError, match=rf"shape \(B, 7\), got {re.escape(str(bad.shape))}"):
            tree_project_batch(bad, t, 2)
    with pytest.raises(ValueError, match="k must be"):
        tree_project_batch(np.zeros((2, t.p)), t, 0)


@pytest.mark.parametrize("d,L", [(2, 4), (3, 3)])
def test_tree_project_batch_of_no_rows(d, L):
    t = make_tree(d, L)
    values, support = tree_project_batch(np.zeros((0, t.p)), t, 3)
    assert values.shape == support.shape == (0, t.p)
    assert values.dtype == float and support.dtype == bool
