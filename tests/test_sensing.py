import math

import numpy as np
import pytest

from treesense import (Dictionary, SensingConfig, adaptive_sense, adaptive_sense_batch,
                       adaptive_sense_coeffs, allocate_beta, make_tree,
                       random_tree_sparse, reconstruct_from_outcome,
                       two_stage_estimate, two_stage_estimate_coeffs,
                       wavelet_reconstruct)

from conftest import significant_set


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


def test_noiseless_measurement_count_and_support(rng):
    # with correct tests the session halts at m = dk + 1
    t = make_tree(2, 5)
    for k in (1, 3, 7):
        vec = random_tree_sparse(t, k, 1.0, 2.0, rng, max_depth=t.depth - 1)
        cfg = SensingConfig(beta=1.0, tau=0.5, noise_std=0.0)
        out = adaptive_sense_coeffs(vec.values, t, cfg, rng)
        assert out.m[0] == 2 * k + 1
        assert significant_set(out) == vec.support
        assert not out.truncated[0]


def test_measured_set_is_support_plus_boundary(rng):
    t = make_tree(3, 4)
    k = 5
    vec = random_tree_sparse(t, k, 1.0, 1.0, rng, max_depth=t.depth - 1)
    cfg = SensingConfig(beta=1.0, tau=0.5, noise_std=0.0)
    out = adaptive_sense_coeffs(vec.values, t, cfg, rng)
    measured = set(out.node.tolist())
    boundary = measured - vec.support
    assert len(boundary) == (t.d - 1) * k + 1
    assert boundary.isdisjoint(vec.support)


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
    out = adaptive_sense_coeffs(vec.values, t, cfg, rng)
    assert out.energy_spent[0] == pytest.approx(out.m[0] * 1.7**2)
    assert out.energy_spent[0] <= 100.0


def test_significance_flag_matches_threshold(rng):
    t = make_tree(2, 4)
    vec = random_tree_sparse(t, 4, 1, 2, rng)
    cfg = SensingConfig(beta=1.0, tau=0.9, noise_std=1.0)
    out = adaptive_sense_coeffs(vec.values, t, cfg, rng)
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


def test_reconstruction_needs_one_session(rng):
    t = make_tree(2, 3)
    cfg = SensingConfig(beta=1.0, tau=0.0, noise_std=0.0)
    batch = adaptive_sense_batch([[1], [1]], [[1.0], [2.0]], t, cfg, rng)
    with pytest.raises(ValueError, match="one session"):
        reconstruct_from_outcome(batch, identity_dict(t), 1.0)
    with pytest.raises(ValueError, match="one session"):
        wavelet_reconstruct(batch, 2, 1.0)


def test_reconstruction_noiseless_projection(rng):
    t = make_tree(2, 3)
    n = 10
    Q, _ = np.linalg.qr(rng.standard_normal((n, t.p)))
    d = Dictionary(atoms=Q, tree=t)
    vec = random_tree_sparse(t, 3, 1, 2, rng)
    x = Q @ vec.values
    cfg = SensingConfig(beta=2.0, tau=0.5, noise_std=0.0)
    out = adaptive_sense(x, d, cfg, rng)
    x_hat = reconstruct_from_outcome(out, d, beta=2.0)
    proj = sum((Q[:, j - 1] @ x) * Q[:, j - 1] for j in vec.support)
    assert np.allclose(x_hat, proj)


def test_reconstruction_single_atom():
    t = make_tree(2, 1)
    d = Dictionary(atoms=np.eye(1), tree=t)
    rng = np.random.default_rng(0)
    cfg = SensingConfig(beta=3.0, tau=0.1, noise_std=0.0)
    out = adaptive_sense(np.array([2.0]), d, cfg, rng)
    assert out.y[0] == pytest.approx(6.0)
    assert reconstruct_from_outcome(out, d, beta=3.0)[0] == pytest.approx(2.0)


def test_reconstruction_empty_support_is_mean(rng):
    t = make_tree(2, 3)
    d = identity_dict(t)
    mean = np.arange(7.0)
    cfg = SensingConfig(beta=1.0, tau=5.0, noise_std=0.0)
    out = adaptive_sense(np.zeros(7), d, cfg, rng)
    assert np.array_equal(reconstruct_from_outcome(out, d, 1.0, mean), mean)


def test_two_stage_noiseless_exact(rng):
    t = make_tree(2, 5)
    d = identity_dict(t)
    vec = random_tree_sparse(t, 4, 1, 2, rng, max_depth=4)
    estimate, out = two_stage_estimate(vec.values, d, 60.0, 4, rng,
                                       alpha_min=1.0, noise_std=0.0)
    assert np.allclose(estimate, vec.values)
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
        estimate, _ = two_stage_estimate_coeffs(vec.values, t, R, k, rng,
                                                alpha_min=alpha_amp, noise_std=1.0)
        errs.append(np.sum((estimate - vec.values) ** 2))
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
