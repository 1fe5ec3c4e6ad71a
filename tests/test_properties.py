"""Property tests (hypothesis): traversal invariants of adaptive_sense_coeffs
over random trees, supports, beta, tau and budgets; the array traversal
engine against the scalar reference, session by session, on d-ary trees and
the Haar quadtrees; a call with one config per session against one-session
calls; is_tree_sparse against its set-loop reference; the
batched tree projection against the per-node reference DP; plus round trips
through tree_project_batch and the Haar transform."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treesense import (SensingConfig, adaptive_sense_coeffs, haar2, ihaar2, is_tree_sparse,
                       make_tree, random_tree_sparse, random_tree_sparse_batch,
                       tree_project_batch, tree_sparse_rows, wavelet_sense)

from conftest import (assert_session_is, reference_is_tree_sparse, reference_project,
                      reference_quadtree, reference_traversal, session, significant_set,
                      support_of)

# (d, L) with p <= 121, so one example stays in the millisecond range
TREES = ([(2, L) for L in range(1, 7)] + [(3, L) for L in range(1, 5)]
         + [(4, L) for L in range(1, 4)])

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def configs(draw):
    return SensingConfig(beta=draw(st.floats(0.1, 3.0)),
                         tau=draw(st.floats(0.0, 3.0)),
                         noise_std=draw(st.sampled_from([0.0, 0.5, 1.0])),
                         budget=draw(st.none() | st.floats(0.01, 100.0)))


@st.composite
def sessions(draw):
    """A tree, a random tree-sparse signal on it and one session's config."""
    tree = make_tree(*draw(st.sampled_from(TREES)))
    k = draw(st.integers(1, tree.p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = random_tree_sparse(tree, k, 0.5, 2.0, rng)
    return tree, vec, draw(configs()), rng


def assert_matches_reference(batch, t, ref):
    """Every field of session t of a batch equals the scalar reference's, bit
    for bit."""
    nodes, ys, sigs, energy, truncated = ref
    mine = batch.trial == t
    node, y, sig = batch.node[mine], batch.y[mine], batch.significant[mine]
    assert node.tolist() == nodes
    assert np.array_equal(y.view(np.int64), np.array(ys, dtype=float).view(np.int64))
    assert sig.tolist() == sigs
    assert batch.m[t] == len(nodes)
    assert batch.energy_spent[t] == energy
    assert batch.truncated[t] == truncated
    assert set(node[sig].tolist()) == {j for j, s in zip(nodes, sigs) if s}


@SETTINGS
@given(sessions(), st.integers(0, 2**32 - 1))
def test_engine_equals_scalar_reference(session, seed):
    tree, vec, cfg, _ = session
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = adaptive_sense_coeffs(vec, tree, cfg, rng)
    ref = reference_traversal(lambda j: float(vec[j - 1]), tree.children, [1],
                              cfg, ref_rng)
    assert_matches_reference(out, 0, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@SETTINGS
@given(st.sampled_from([1, 2, 4, 8, 16]), st.integers(0, 2**32 - 1), configs())
def test_wavelet_engine_equals_scalar_reference(side, seed, cfg):
    img = np.random.default_rng([seed, 1]).standard_normal((side, side))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = wavelet_sense(img, cfg, rng)
    flat = haar2(img).ravel()
    roots, children = reference_quadtree(side)
    ref = reference_traversal(lambda j: float(flat[j]), children.__getitem__, roots,
                              cfg, ref_rng)
    assert_matches_reference(out, 0, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class _Recorder:
    """Generator stand-in that keeps every noise block it hands out."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, []

    def standard_normal(self, n):
        self.blocks.append(self.rng.standard_normal(n))
        return self.blocks[-1]


class _Replay:
    """Generator stand-in that hands out given values, one per call."""

    def __init__(self, values):
        self.values = iter(values.tolist())

    def standard_normal(self):
        return next(self.values)


@SETTINGS
@given(st.sampled_from(TREES), st.integers(1, 6), st.integers(0, 2**32 - 1),
       configs(), st.data())
def test_batch_trials_equal_scalar_reference(shape, trials, seed, cfg, data):
    tree = make_tree(*shape)
    k = data.draw(st.integers(1, tree.p))
    nodes, values = random_tree_sparse_batch(tree, k, 0.5, 2.0,
                                             np.random.default_rng(seed), trials)
    dense = tree_sparse_rows(tree, nodes, values)
    rec = _Recorder(np.random.default_rng([seed, 1]))
    batch = adaptive_sense_coeffs(dense, tree, cfg, rec)
    noise = np.concatenate(rec.blocks) if rec.blocks else np.zeros(len(batch.trial))
    assert len(noise) == len(batch.trial)
    for t in range(trials):
        ref = reference_traversal(lambda j: float(dense[t, j - 1]), tree.children, [1],
                                  cfg, _Replay(noise[batch.trial == t]))
        assert_matches_reference(batch, t, ref)


@st.composite
def config_lists(draw, trials):
    """`trials` configs drawn from a pool of up to three, so that sessions
    share some and differ in others; tau = 0, noise_std = 0 and budgets that
    cannot afford a full traversal (those below 3 often truncate) all come
    up often."""
    pool = draw(st.lists(st.builds(
        SensingConfig, beta=st.floats(0.1, 3.0),
        tau=st.just(0.0) | st.floats(0.0, 3.0),
        noise_std=st.sampled_from([0.0, 0.5, 1.0]),
        budget=st.none() | st.floats(0.01, 3.0) | st.floats(0.01, 100.0)),
        min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=trials, max_size=trials))


@SETTINGS
@given(st.sampled_from(TREES), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_a_list_of_configs_equals_one_session_calls(shape, trials, seed, data):
    tree = make_tree(*shape)
    cfgs = data.draw(config_lists(trials))
    k = data.draw(st.integers(1, tree.p))
    dense = tree_sparse_rows(tree, *random_tree_sparse_batch(
        tree, k, 0.5, 2.0, np.random.default_rng([seed, 2]), trials))
    img = np.random.default_rng([seed, 1]).standard_normal((8, 8))
    for call in (lambda cfg, rng, t=slice(None): adaptive_sense_coeffs(dense[t], tree, cfg, rng),
                 lambda cfg, rng, t=None: wavelet_sense(img, cfg, rng)):
        gens = [np.random.default_rng([seed, t]) for t in range(trials)]
        refs = [np.random.default_rng([seed, t]) for t in range(trials)]
        batch = call(cfgs, gens)
        for t in range(trials):
            assert_session_is(batch, t, call(cfgs[t], refs[t], t))
            assert gens[t].bit_generator.state == refs[t].bit_generator.state
        # with one generator that all sessions share, a quiet session draws
        # nothing, so the loud ones draw what a call on them alone draws
        loud = [t for t in range(trials) if cfgs[t].noise_std > 0]
        shared, alone = np.random.default_rng([seed, 3]), np.random.default_rng([seed, 3])
        batch = call(cfgs, shared)
        if loud:
            ref = call([cfgs[t] for t in loud], alone, loud)
            for j, t in enumerate(loud):
                assert_session_is(batch, t, session(ref, j))
        assert shared.bit_generator.state == alone.bit_generator.state
        for t in set(range(trials)) - set(loud):
            assert_session_is(batch, t, call(cfgs[t], None, t))


@SETTINGS
@given(sessions())
def test_energy_is_m_beta_squared_within_budget(session):
    tree, vec, cfg, rng = session
    out = adaptive_sense_coeffs(vec, tree, cfg, rng)
    cost = cfg.beta**2
    assert abs(out.energy_spent[0] - out.m[0] * cost) <= 1e-12 * max(1.0, out.m[0] * cost)
    if cfg.budget is not None:
        assert out.energy_spent[0] <= cfg.budget * (1 + 1e-12)


@SETTINGS
@given(sessions())
def test_truncated_iff_budget_binds_with_nodes_queued(session):
    tree, vec, cfg, rng = session
    out = adaptive_sense_coeffs(vec, tree, cfg, rng)
    measured = set(out.node.tolist())
    # the queue holds the root until it is measured, then every unmeasured
    # child of a significant node
    queued = ({1} | {c for j in significant_set(out) for c in tree.children(j)}) - measured
    binds = (cfg.budget is not None
             and out.energy_spent[0] + cfg.beta**2 > cfg.budget * (1 + 1e-12))
    assert out.truncated[0] == (binds and bool(queued))
    if not out.truncated[0]:
        assert not queued


@SETTINGS
@given(sessions())
def test_measured_set_is_rooted_connected(session):
    tree, vec, cfg, rng = session
    out = adaptive_sense_coeffs(vec, tree, cfg, rng)
    nodes = out.node.tolist()
    assert len(set(nodes)) == len(nodes)
    assert not nodes or nodes[0] == 1
    assert significant_set(out) <= set(nodes)
    for j in nodes[1:]:
        assert tree.parent(j) in significant_set(out)


@SETTINGS
@given(st.sampled_from([t for t in TREES if t[1] >= 2]), st.integers(0, 2**32 - 1),
       st.data())
def test_noiseless_unbounded_count_is_dk_plus_1(shape, seed, data):
    tree = make_tree(*shape)
    k = data.draw(st.integers(1, tree.n_internal))   # support off the leaf level
    beta = data.draw(st.floats(0.1, 3.0))
    # a threshold in (0, beta * amp_min) passes every support node and no zero
    tau = data.draw(st.floats(0.0, 0.5 * beta, exclude_min=True, exclude_max=True))
    rng = np.random.default_rng(seed)
    vec = random_tree_sparse(tree, k, 0.5, 2.0, rng, max_depth=tree.depth - 1)
    cfg = SensingConfig(beta=beta, tau=tau, noise_std=0.0, budget=None)
    out = adaptive_sense_coeffs(vec, tree, cfg, rng)
    assert out.m[0] == tree.d * k + 1
    assert significant_set(out) == support_of(vec)
    assert not out.truncated[0]


# entries are exact zeros or at least 0.1 in magnitude, so no nonzero hides
# below the projection's relative energy tolerance
ENTRIES = st.one_of(st.just(0.0), st.floats(0.1, 10.0), st.floats(-10.0, -0.1),
                    st.sampled_from([0.5, -0.5, 1.0]))


@SETTINGS
@given(st.sampled_from(TREES), st.data())
def test_tree_project_is_idempotent(shape, data):
    tree = make_tree(*shape)
    v = np.array(data.draw(st.lists(ENTRIES, min_size=tree.p, max_size=tree.p)))
    k = data.draw(st.integers(1, tree.p))
    w, _ = tree_project_batch(v[None], tree, k)
    again, _ = tree_project_batch(w, tree, k)
    assert np.array_equal(again[0], w[0])


@SETTINGS
@given(st.sampled_from([t for t in TREES if t[0] > 2 or t[1] <= 5]), st.data())
def test_batched_projection_equals_per_node_reference(shape, data):
    # up to 5 rows of values in -0.3, -0.2, ..., 0.3: sums of their squares
    # tie exactly or to rounding, and the zeros leave a fringe to drop; each
    # row must be its own per-node projection, values bit for bit
    tree = make_tree(*shape)
    k = data.draw(st.integers(1, tree.p))
    entry = st.integers(-3, 3).map(lambda i: i / 10)
    V = np.array(data.draw(st.lists(st.lists(entry, min_size=tree.p, max_size=tree.p),
                                    min_size=1, max_size=5)))
    values, support = tree_project_batch(V, tree, k)
    for v, got_values, got_support in zip(V, values, support):
        ref_support, ref_values = reference_project(v, tree, k)
        assert set((np.flatnonzero(got_support) + 1).tolist()) == ref_support
        assert got_values.tobytes() == ref_values.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 16, 32]), st.data())
def test_haar_round_trip(side, data):
    vals = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=side * side,
                              max_size=side * side))
    img = np.array(vals).reshape(side, side)
    back = ihaar2(haar2(img))
    assert np.allclose(back, img, rtol=0.0, atol=1e-9 * (1.0 + np.max(np.abs(img))))


@SETTINGS
@given(st.sampled_from(TREES), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.1, 0.5, 0.9]))
def test_is_tree_sparse_equals_set_loop(shape, seed, tol):
    # a tree-sparse vector with amplitudes in [0.01, 1], so tol cuts some of
    # its entries, and up to two entries set anywhere
    tree = make_tree(*shape)
    rng = np.random.default_rng(seed)
    v = random_tree_sparse(tree, int(rng.integers(1, tree.p + 1)), 0.01, 1.0, rng)
    flips = rng.integers(0, tree.p, size=rng.integers(0, 3))
    v[flips] = rng.uniform(-1.0, 1.0, size=len(flips))
    assert is_tree_sparse(v, tree, tol) == reference_is_tree_sparse(v, tree, tol)
