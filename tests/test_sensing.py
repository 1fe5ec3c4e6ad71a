import math
from dataclasses import fields

import numpy as np
import pytest

from treesense import (Dictionary, SensingConfig, SessionBatch, adaptive_sense_coeffs,
                       allocate_beta, make_tree, random_tree_sparse, random_tree_sparse_batch,
                       reconstruct_from_outcome, tree_sparse_rows, two_stage_estimate_coeffs,
                       wavelet_reconstruct, wavelet_sense)

from conftest import assert_session_is, session, significant_set, support_of


def identity_dict(tree):
    return Dictionary(atoms=np.eye(tree.p), tree=tree)


def test_allocate_beta_values():
    assert allocate_beta(12, 2, 2) == pytest.approx(math.sqrt(2))
    assert allocate_beta(3 * 5, 2, 5) == pytest.approx(1.0)
    assert allocate_beta(16384, 2, 127) == pytest.approx(math.sqrt(16384 / 381))
    assert allocate_beta(16384, 2, 127) == pytest.approx(6.5576, abs=1e-3)
    with pytest.raises(ValueError):
        allocate_beta(0, 2, 2)
    with pytest.raises(ValueError):
        allocate_beta(1, 2, 0)
    for args in [(math.nan, 2, 2), (1, math.nan, 2), (1, 2, math.nan)]:
        with pytest.raises(ValueError, match="must all be positive"):
            allocate_beta(*args)


def test_noiseless_measurement_count_and_support(rng):
    # with correct tests the session halts at m = dk + 1
    t = make_tree(2, 5)
    for k in (1, 3, 7):
        vec = random_tree_sparse(t, k, 1.0, 2.0, rng, max_depth=t.depth - 1)
        cfg = SensingConfig(beta=1.0, tau=0.5, noise_std=0.0)
        out = adaptive_sense_coeffs(vec, t, cfg, rng)
        assert out.m[0] == 2 * k + 1
        assert significant_set(out) == support_of(vec)
        assert not out.truncated[0]


def test_measured_set_is_support_plus_boundary(rng):
    t = make_tree(3, 4)
    k = 5
    vec = random_tree_sparse(t, k, 1.0, 1.0, rng, max_depth=t.depth - 1)
    cfg = SensingConfig(beta=1.0, tau=0.5, noise_std=0.0)
    out = adaptive_sense_coeffs(vec, t, cfg, rng)
    measured = set(out.node.tolist())
    boundary = measured - support_of(vec)
    assert len(boundary) == (t.d - 1) * k + 1
    assert boundary.isdisjoint(support_of(vec))


def test_zero_threshold_measures_everything(rng):
    t = make_tree(2, 4)
    v = np.zeros(t.p)
    cfg = SensingConfig(beta=1.0, tau=0.0, noise_std=0.0)
    out = adaptive_sense_coeffs(v, t, cfg, rng)
    assert out.m[0] == t.p
    assert significant_set(out) == set(range(1, t.p + 1))


def test_zero_signal_stops_at_root(rng):
    t = make_tree(2, 4)
    cfg = SensingConfig(beta=1.0, tau=0.5, noise_std=0.0)
    out = adaptive_sense_coeffs(np.zeros(t.p), t, cfg, rng)
    assert out.m[0] == 1
    assert significant_set(out) == frozenset()


def test_budget_exhaustion_flagged(rng):
    t = make_tree(2, 4)
    cfg = SensingConfig(beta=1.0, tau=0.0, noise_std=0.0, budget=4.5)
    out = adaptive_sense_coeffs(np.ones(t.p), t, cfg, rng)
    assert out.truncated[0]
    assert out.m[0] == 4
    assert out.energy_spent[0] <= 4.5


def test_energy_accounting(rng):
    t = make_tree(2, 4)
    vec = random_tree_sparse(t, 3, 1, 1, rng, max_depth=3)
    cfg = SensingConfig(beta=1.7, tau=0.4, noise_std=1.0, budget=100.0)
    out = adaptive_sense_coeffs(vec, t, cfg, rng)
    assert out.energy_spent[0] == pytest.approx(out.m[0] * 1.7**2)
    assert out.energy_spent[0] <= 100.0


def test_significance_flag_matches_threshold(rng):
    t = make_tree(2, 4)
    vec = random_tree_sparse(t, 4, 1, 2, rng)
    cfg = SensingConfig(beta=1.0, tau=0.9, noise_std=1.0)
    out = adaptive_sense_coeffs(vec, t, cfg, rng)
    nodes = out.node.tolist()
    assert len(nodes) == len(set(nodes))
    for node, y, significant in zip(nodes, out.y, out.significant):
        assert significant == (abs(y) >= 0.9)
        assert (node in significant_set(out)) == significant


def test_batch_of_empty_supports():
    # zero rows: every session measures pure noise at the root, and a tau
    # above every draw ends it there
    t = make_tree(2, 4)
    cfg = SensingConfig(beta=1.0, tau=10.0, noise_std=1.0)
    batch = adaptive_sense_coeffs(np.zeros((3, t.p)), t, cfg, np.random.default_rng(5))
    assert batch.m.tolist() == [1, 1, 1] and batch.node.tolist() == [1, 1, 1]
    assert np.array_equal(batch.y, np.random.default_rng(5).standard_normal(3))
    # and a batch of no sessions measures nothing
    batch = adaptive_sense_coeffs(np.zeros((0, t.p)), t, cfg, np.random.default_rng(5))
    assert len(batch.m) == 0 and len(batch.node) == 0


def join_sessions(*batches):
    """One SessionBatch of one-session batches, session t from batches[t]."""
    parts = {f.name: np.concatenate([getattr(b, f.name) for b in batches])
             for f in fields(SessionBatch)}
    parts["trial"] = np.concatenate([np.full(len(b.node), t) for t, b in enumerate(batches)])
    return SessionBatch(**parts)


def test_reconstruction_takes_a_session_batch(rng):
    # a T-session batch reconstructs to the rows of its sessions' one-session
    # reconstructions, bit for bit
    t = make_tree(2, 4)
    Q, _ = np.linalg.qr(rng.standard_normal((20, t.p)))
    d, mean = Dictionary(atoms=Q, tree=t), rng.standard_normal(20)
    cfg = SensingConfig(beta=1.5, tau=0.8, noise_std=0.5)
    rows = np.zeros((2, t.p))
    rows[[[0], [1]], [[0, 1, 4], [0, 2, 5]]] = [[2.0, -1.5, 1.0], [1.0, 2.5, -2.0]]
    batch = adaptive_sense_coeffs(rows, t, cfg, rng)
    x_hat = reconstruct_from_outcome(batch, d, 1.5, mean)
    assert x_hat.shape == (2, 20)
    for trial in range(2):
        own = reconstruct_from_outcome(session(batch, trial), d, 1.5, mean)
        assert own.shape == (1, 20)
        assert x_hat[trial].tobytes() == own[0].tobytes()

    images = rng.standard_normal((2, 8, 8))
    sessions = [wavelet_sense(img, cfg, rng) for img in images]
    rec = wavelet_reconstruct(join_sessions(*sessions), 8, 1.5)
    assert rec.shape == (2, 8, 8)
    for trial in range(2):
        assert rec[trial].tobytes() == wavelet_reconstruct(sessions[trial], 8, 1.5)[0].tobytes()
    # and a batch of no sessions to no rows
    empty = SessionBatch(*(getattr(batch, f.name)[:0] for f in fields(SessionBatch)))
    assert reconstruct_from_outcome(empty, d, 1.5).shape == (0, 20)
    assert wavelet_reconstruct(empty, 8, 1.5).shape == (0, 8, 8)


def test_reconstruction_rejects_node_ids_outside_its_size(rng):
    # both raised numpy's IndexError before
    cfg = SensingConfig(beta=1.0, tau=0.0, noise_std=0.0)
    batch = wavelet_sense(rng.standard_normal((4, 4)), cfg, rng)
    with pytest.raises(ValueError, match=r"node ids 0\.\.15 do not fit the 4 ids 0\.\.3"):
        wavelet_reconstruct(batch, 2, 1.0)
    t = make_tree(2, 3)
    batch = adaptive_sense_coeffs(np.arange(1.0, 8.0), t, cfg, rng)
    three = Dictionary(atoms=np.eye(3), tree=make_tree(2, 2))
    with pytest.raises(ValueError, match=r"node ids 1\.\.7 do not fit the 3 ids 1\.\.3"):
        reconstruct_from_outcome(batch, three, 1.0)


@pytest.mark.parametrize("beta", [math.nan, -2.0, 0.0])
def test_reconstruction_rejects_nonpositive_beta(rng, beta):
    t = make_tree(2, 3)
    cfg = SensingConfig(beta=2.0, tau=0.5, noise_std=0.0)
    batch = adaptive_sense_coeffs(np.arange(1.0, 8.0), t, cfg, rng)
    with pytest.raises(ValueError, match="beta must be positive"):
        reconstruct_from_outcome(batch, identity_dict(t), beta)
    batch = wavelet_sense(np.arange(16.0).reshape(4, 4), cfg, rng)
    with pytest.raises(ValueError, match="beta must be positive"):
        wavelet_reconstruct(batch, 4, beta)


def test_reconstruction_noiseless_projection(rng):
    t = make_tree(2, 3)
    n = 10
    Q, _ = np.linalg.qr(rng.standard_normal((n, t.p)))
    d = Dictionary(atoms=Q, tree=t)
    vec = random_tree_sparse(t, 3, 1, 2, rng)
    x = Q @ vec
    cfg = SensingConfig(beta=2.0, tau=0.5, noise_std=0.0)
    out = adaptive_sense_coeffs(d.atoms.T @ x, d.tree, cfg, rng)
    x_hat = reconstruct_from_outcome(out, d, beta=2.0)
    proj = sum((Q[:, j - 1] @ x) * Q[:, j - 1] for j in support_of(vec))
    assert np.allclose(x_hat, proj)


def test_reconstruction_single_atom():
    t = make_tree(2, 1)
    d = Dictionary(atoms=np.eye(1), tree=t)
    rng = np.random.default_rng(0)
    cfg = SensingConfig(beta=3.0, tau=0.1, noise_std=0.0)
    out = adaptive_sense_coeffs(d.atoms.T @ np.array([2.0]), d.tree, cfg, rng)
    assert out.y[0] == pytest.approx(6.0)
    assert reconstruct_from_outcome(out, d, beta=3.0)[0] == pytest.approx(2.0)


def test_reconstruction_empty_support_is_mean(rng):
    t = make_tree(2, 3)
    d = identity_dict(t)
    mean = np.arange(7.0)
    cfg = SensingConfig(beta=1.0, tau=5.0, noise_std=0.0)
    out = adaptive_sense_coeffs(d.atoms.T @ np.zeros(7), d.tree, cfg, rng)
    assert np.array_equal(reconstruct_from_outcome(out, d, 1.0, mean), mean[None])


def test_two_stage_noiseless_exact(rng):
    t = make_tree(2, 5)
    d = identity_dict(t)
    vec = random_tree_sparse(t, 4, 1, 2, rng, max_depth=4)
    estimate, out = two_stage_estimate_coeffs(d.atoms.T @ vec, d.tree, 60.0, 4, rng,
                                              alpha_min=1.0, noise_std=0.0)
    assert np.allclose(estimate, vec)
    assert out.m[0] == 2 * 4 + 1


def test_two_stage_empty_support_zero_estimate(rng):
    t = make_tree(2, 4)
    estimate, _ = two_stage_estimate_coeffs(np.zeros(t.p), t, 30.0, 3, rng,
                                            alpha_min=1.0, noise_std=0.0)
    assert np.all(estimate == 0)


def test_two_stage_error_matches_variance_prediction(rng):
    # with split 0.5 and exact stage-1 recovery, E||est - alpha||^2 = 2k^2 s^2/R
    t = make_tree(2, 5)
    k, R = 7, 800.0
    beta1 = allocate_beta(0.5 * R, 2, k)
    alpha_amp = 12.0 / beta1  # comfortably above threshold
    errs = []
    for _ in range(400):
        vec = random_tree_sparse(t, k, alpha_amp, alpha_amp, rng, max_depth=4)
        estimate, _ = two_stage_estimate_coeffs(vec, t, R, k, rng,
                                                alpha_min=alpha_amp, noise_std=1.0)
        errs.append(np.sum((estimate - vec) ** 2))
    predicted = 2 * k**2 / R
    assert np.mean(errs) == pytest.approx(predicted, rel=0.25)


@pytest.mark.parametrize("field", ["beta", "tau", "noise_std"])
def test_config_rejects_infinite_values_naming_the_field(field):
    # beta = inf gave y = inf and energy_spent = inf, noise_std = inf gave
    # +-inf measurements; an infinite budget means no budget and stays
    kwargs = {"beta": 1.0, "tau": 0.5, "noise_std": 1.0, field: math.inf}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SensingConfig(**kwargs)
    assert SensingConfig(beta=1.0, tau=0.5, budget=math.inf).budget == math.inf


@pytest.mark.parametrize("total_budget,alpha_min,field", [
    (math.inf, 1.0, "total_budget"), (math.nan, 1.0, "total_budget"),
    (0.0, 1.0, "total_budget"), (-8.0, 1.0, "total_budget"),
    (30.0, math.inf, "alpha_min"), (30.0, math.nan, "alpha_min"), (30.0, -1.0, "alpha_min")])
def test_two_stage_rejects_bad_budgets_and_amplitudes_naming_them(total_budget, alpha_min,
                                                                   field, rng):
    # a total_budget of inf ran with a RuntimeWarning and nan failed in
    # allocate_beta; a bad alpha_min failed naming tau, which it sets
    t = make_tree(2, 3)
    with pytest.raises(ValueError, match=f"^{field} must be .* and finite"):
        two_stage_estimate_coeffs(np.ones(t.p), t, total_budget, 2, rng, alpha_min=alpha_min)


def test_config_validation():
    with pytest.raises(ValueError):
        SensingConfig(beta=0.0, tau=0.1)
    with pytest.raises(ValueError):
        SensingConfig(beta=1.0, tau=-0.1)
    with pytest.raises(ValueError):
        SensingConfig(beta=1.0, tau=0.1, noise_std=-1.0)
    for budget in (0.0, float("nan")):
        with pytest.raises(ValueError):
            SensingConfig(beta=1.0, tau=0.1, budget=budget)
    nan = float("nan")
    for kwargs in ({"beta": nan, "tau": 0.1}, {"beta": 1.0, "tau": nan},
                   {"beta": 1.0, "tau": 0.1, "noise_std": nan}):
        with pytest.raises(ValueError):
            SensingConfig(**kwargs)


# ---------------------------------------------------------------------------
# A list of T generators: session t draws on rng[t] exactly what a one-session
# call on it draws, so each row equals that call bit for bit, and each
# generator ends where that call leaves it.
# ---------------------------------------------------------------------------

CONFIGS = [SensingConfig(beta=1.0, tau=0.8, noise_std=1.0),
           SensingConfig(beta=1.5, tau=0.3, noise_std=0.5, budget=12.0),   # truncates
           SensingConfig(beta=2.0, tau=0.5, budget=3.0),   # cannot afford the root
           SensingConfig(beta=1.0, tau=0.5, noise_std=0.0)]
T = 5


def generators(seed=7):
    return [np.random.default_rng([seed, t]) for t in range(T)]


def assert_next_draws_match(gens, refs):
    assert [g.random() for g in gens] == [r.random() for r in refs]


def sparse_rows(tree, k=4, seed=3):
    """(T, p): T tree-sparse rows."""
    return tree_sparse_rows(tree, *random_tree_sparse_batch(tree, k, 0.3, 2.5,
                                                            np.random.default_rng(seed), T))


# a list of one config per session: every config of CONFIGS at least once,
# some twice, in no order
MIXED = [CONFIGS[j] for j in (1, 0, 3, 1, 2)]


def own(cfg, row):
    """Session row's config: cfg[row] of a list, else cfg."""
    return cfg[row] if isinstance(cfg, list) else cfg


@pytest.mark.parametrize("cfg", CONFIGS + [MIXED])
def test_batch_with_generators_equals_one_session_calls(cfg):
    t = make_tree(3, 4)
    dense = sparse_rows(t)
    gens, refs = generators(), generators()
    batch = adaptive_sense_coeffs(dense, t, cfg, tuple(gens))   # a tuple serves too
    for row in range(T):
        assert_session_is(batch, row,
                          adaptive_sense_coeffs(dense[row], t, own(cfg, row), refs[row]))
    assert_next_draws_match(gens, refs)


@pytest.mark.parametrize("cfg", CONFIGS + [MIXED])
def test_wavelet_sense_with_generators_equals_one_session_calls(cfg):
    img = np.random.default_rng(4).standard_normal((8, 8))
    gens, refs = generators(), generators()
    batch = wavelet_sense(img, cfg, gens)
    assert len(batch.m) == T
    for row in range(T):
        assert_session_is(batch, row, wavelet_sense(img, own(cfg, row), refs[row]))
    assert_next_draws_match(gens, refs)


@pytest.mark.parametrize("noise_std", [1.0, 0.0])
def test_two_stage_with_generators_equals_one_vector_calls(noise_std):
    t = make_tree(2, 5)
    dense = sparse_rows(t, k=5)
    dense *= 4.0   # most, not all, supports are found
    gens, refs = generators(), generators()
    estimate, batch = two_stage_estimate_coeffs(dense, t, 120.0, 5, gens, alpha_min=1.2,
                                                noise_std=noise_std)
    assert estimate.shape == (T, t.p)
    for row in range(T):
        own, one = two_stage_estimate_coeffs(dense[row], t, 120.0, 5, refs[row],
                                             alpha_min=1.2, noise_std=noise_std)
        assert estimate[row].tobytes() == own.tobytes()
        assert_session_is(batch, row, one)
    assert_next_draws_match(gens, refs)


def test_a_list_of_betas_reconstructs_each_session_with_its_own(rng):
    t = make_tree(3, 4)
    Q, _ = np.linalg.qr(rng.standard_normal((50, t.p)))
    d, mean = Dictionary(atoms=Q, tree=t), rng.standard_normal(50)
    betas = np.array([cfg.beta for cfg in MIXED])
    batch = adaptive_sense_coeffs(sparse_rows(t), t, MIXED, generators())
    x_hat = reconstruct_from_outcome(batch, d, betas, mean)
    waves = wavelet_sense(np.random.default_rng(4).standard_normal((8, 8)), MIXED, generators())
    rec = wavelet_reconstruct(waves, 8, betas)
    for row in range(T):
        own = reconstruct_from_outcome(session(batch, row), d, betas[row], mean)
        assert x_hat[row].tobytes() == own[0].tobytes()
        assert rec[row].tobytes() == wavelet_reconstruct(session(waves, row), 8,
                                                         betas[row])[0].tobytes()
    for bad in (betas[:2], np.append(betas, 1.0), betas[:, None]):
        with pytest.raises(ValueError, match=f"^{bad.size} betas for {T} sessions"):
            reconstruct_from_outcome(batch, d, bad)
    with pytest.raises(ValueError, match="beta must be positive"):
        wavelet_reconstruct(waves, 8, np.where(np.arange(T) == 3, 0.0, betas))


def test_a_list_of_configs_of_the_wrong_length_names_both_lengths():
    t = make_tree(2, 3)
    dense = sparse_rows(t, k=2)
    for call in (lambda: adaptive_sense_coeffs(dense, t, MIXED[:3], generators()),
                 lambda: adaptive_sense_coeffs(dense, t, MIXED[:3], np.random.default_rng(1))):
        with pytest.raises(ValueError, match=f"^3 configs for {T} sessions"):
            call()
    # wavelet_sense takes its session count from the first list: the
    # generators' list must match it
    with pytest.raises(ValueError, match=f"^{T} generators for 3 rows"):
        wavelet_sense(np.eye(4), MIXED[:3], generators())


@pytest.mark.parametrize("shared", [False, True], ids=["own_generators", "one_generator"])
def test_a_quiet_session_among_loud_ones_keeps_its_signed_zeros(shared):
    # a noiseless session of a mixed call adds -0.0 where a loud one adds
    # noise; x + -0.0 is x, so a -0.0 measurement stays -0.0, as in its
    # one-session call, which adds nothing
    t = make_tree(2, 3)
    dense = np.full((2, t.p), -0.0)
    dense[0] = 1.0
    cfgs = [SensingConfig(beta=1.0, tau=0.0, noise_std=1.0),
            SensingConfig(beta=1.0, tau=0.0, noise_std=0.0)]
    rng = np.random.default_rng(5) if shared else [np.random.default_rng([5, s]) for s in (0, 1)]
    batch = adaptive_sense_coeffs(dense, t, cfgs, rng)
    one = adaptive_sense_coeffs(dense[1], t, cfgs[1], None)
    assert one.y.tobytes() == np.full(t.p, -0.0).tobytes()
    assert_session_is(batch, 1, one)


def test_a_list_of_the_wrong_length_names_both_lengths():
    t = make_tree(2, 3)
    cfg = SensingConfig(beta=1.0, tau=0.5)
    dense = sparse_rows(t, k=2)
    three = generators()[:3]
    for call, rows in ((lambda: adaptive_sense_coeffs(dense, t, cfg, three), T),
                       (lambda: adaptive_sense_coeffs(dense[0], t, cfg, three), 1),
                       (lambda: two_stage_estimate_coeffs(dense, t, 30.0, 2, three, 1.0), T),
                       (lambda: random_tree_sparse_batch(t, 2, 1, 1, three, T), T)):
        with pytest.raises(ValueError, match=f"^3 generators for {rows} rows"):
            call()


def test_an_empty_list_senses_no_sessions():
    t = make_tree(2, 3)
    cfg = SensingConfig(beta=1.0, tau=0.5)
    for batch in (adaptive_sense_coeffs(np.zeros((0, t.p)), t, cfg, []),
                  adaptive_sense_coeffs(np.zeros((0, t.p)), t, [], []),
                  wavelet_sense(np.ones((4, 4)), cfg, []),
                  wavelet_sense(np.ones((4, 4)), [], [])):
        assert len(batch.m) == len(batch.node) == 0
    estimate, batch = two_stage_estimate_coeffs(np.zeros((0, t.p)), t, 30.0, 2, [],
                                                alpha_min=1.0)
    assert estimate.shape == (0, t.p) and len(batch.m) == 0
    nodes, values = random_tree_sparse_batch(t, 3, 1, 2, [], 0)
    assert nodes.shape == values.shape == (0, 3)


class _Delegate:
    """A generator stand-in that is no numpy Generator: it hands every draw
    to the generator it wraps."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_a_duck_typed_generator_is_one_shared_generator():
    t = make_tree(3, 4)
    cfg = CONFIGS[1]
    dense = sparse_rows(t)
    for call in (lambda rng: random_tree_sparse_batch(t, 4, 1, 2, rng, T)[1],
                 lambda rng: adaptive_sense_coeffs(dense, t, cfg, rng).y,
                 lambda rng: two_stage_estimate_coeffs(dense, t, 60.0, 4, rng, 1.0)[0],
                 lambda rng: wavelet_sense(np.eye(8), cfg, rng).y):
        shared = call(np.random.default_rng(9))
        assert call(_Delegate(np.random.default_rng(9))).tobytes() == shared.tobytes()


def _outputs(out):
    """The arrays of a draw's result, as bytes: a SessionBatch's fields, or
    each entry of a tuple."""
    if isinstance(out, SessionBatch):
        return [getattr(out, f.name).tobytes() for f in fields(SessionBatch)]
    if isinstance(out, tuple):
        return [b for entry in out for b in _outputs(entry)]
    return [out.tobytes()]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_a_list_of_one_generator_draws_what_the_generator_draws(cfg):
    # [g] draws as a list of per-row generators, g alone as one shared
    # generator: the values and g's next draw are the same either way
    t = make_tree(3, 4)
    dense = sparse_rows(t)
    for call in (lambda rng: random_tree_sparse_batch(t, 4, 0.3, 2.5, rng, 1, max_depth=3),
                 lambda rng: adaptive_sense_coeffs(dense[0], t, cfg, rng),
                 lambda rng: two_stage_estimate_coeffs(dense[0], t, 60.0, 4, rng, 1.0,
                                                       noise_std=cfg.noise_std),
                 lambda rng: wavelet_sense(np.eye(8), cfg, rng)):
        alone, listed = np.random.default_rng(9), np.random.default_rng(9)
        assert _outputs(call([listed])) == _outputs(call(alone))
        assert listed.random() == alone.random()
