import math
from dataclasses import fields

import numpy as np
import pytest

from treesense import (Dictionary, SensingConfig, SessionBatch, adaptive_sense_batch,
                       adaptive_sense_coeffs, allocate_beta, make_tree,
                       random_tree_sparse, reconstruct_from_outcome,
                       two_stage_estimate_coeffs, wavelet_reconstruct, wavelet_sense)

from conftest import significant_set, support_of


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


@pytest.mark.parametrize("nodes,reason", [
    ([[1, 0]], "in 1..15"),
    ([[1, 16]], "in 1..15"),
    ([[1, 1]], "distinct"),
    ([[1.0, 2.0]], "integers"),
], ids=["node-0", "node-p+1", "repeated", "float"])
def test_batch_rejects_bad_node_ids(nodes, reason, rng):
    # node 0 would wrap to node p, p + 1 would index past the slot map, and a
    # repeated id would keep only its last value
    t = make_tree(2, 4)
    cfg = SensingConfig(beta=1.0, tau=0.5, noise_std=0.0)
    with pytest.raises(ValueError, match=reason):
        adaptive_sense_batch(nodes, [[2.0, 3.0]], t, cfg, rng)


def test_batch_of_empty_supports():
    # k = 0: every session measures pure noise at the root, and a tau above
    # every draw ends it there
    t = make_tree(2, 4)
    cfg = SensingConfig(beta=1.0, tau=10.0, noise_std=1.0)
    batch = adaptive_sense_batch(np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0)), t, cfg,
                                 np.random.default_rng(5))
    assert batch.m.tolist() == [1, 1, 1] and batch.node.tolist() == [1, 1, 1]
    assert np.array_equal(batch.y, np.random.default_rng(5).standard_normal(3))
    # and a batch of no sessions measures nothing
    batch = adaptive_sense_batch(np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)), t, cfg,
                                 np.random.default_rng(5))
    assert len(batch.m) == 0 and len(batch.node) == 0


def session(batch, t):
    """Session t of a SessionBatch, as a one-session batch."""
    keep = batch.trial == t
    return SessionBatch(trial=np.zeros(keep.sum(), dtype=batch.trial.dtype),
                        node=batch.node[keep], y=batch.y[keep],
                        significant=batch.significant[keep], m=batch.m[t:t + 1],
                        energy_spent=batch.energy_spent[t:t + 1],
                        truncated=batch.truncated[t:t + 1])


def join_sessions(*batches):
    """One SessionBatch of one-session batches, session t from batches[t]."""
    parts = {f.name: np.concatenate([getattr(b, f.name) for b in batches])
             for f in fields(SessionBatch)}
    parts["trial"] = np.concatenate([np.full(len(b.node), t) for t, b in enumerate(batches)])
    return SessionBatch(**parts)


def test_reconstruction_takes_a_session_batch(rng):
    # a T-session batch reconstructs to the rows of its sessions' one-session
    # reconstructions: the dictionary's within rounding (one product over
    # every session), the wavelet's bit for bit
    t = make_tree(2, 4)
    Q, _ = np.linalg.qr(rng.standard_normal((20, t.p)))
    d, mean = Dictionary(atoms=Q, tree=t), rng.standard_normal(20)
    cfg = SensingConfig(beta=1.5, tau=0.8, noise_std=0.5)
    batch = adaptive_sense_batch([[1, 2, 5], [1, 3, 6]], [[2.0, -1.5, 1.0], [1.0, 2.5, -2.0]],
                                 t, cfg, rng)
    x_hat = reconstruct_from_outcome(batch, d, 1.5, mean)
    assert x_hat.shape == (2, 20)
    for trial in range(2):
        own = reconstruct_from_outcome(session(batch, trial), d, 1.5, mean)
        assert own.shape == (1, 20)
        assert np.max(np.abs(x_hat[trial] - own[0])) <= 1e-12 * np.max(np.abs(own))

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
