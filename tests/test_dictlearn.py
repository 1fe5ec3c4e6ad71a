import numpy as np
import pytest

from treesense import (Dictionary, LearnConfig, TrainingSet,
                       initial_dictionary, is_tree_sparse, learn, learn_objective,
                       load_dictionary, make_tree, save_dictionary, tree_prox,
                       update_dictionary)

from conftest import popping_random_tree_sparse


def planted_instance(rng, n=64, p_tree=(2, 4), q=200, k=6, noise=0.01):
    # the supports come from the popping grower: with the same seed, these
    # are the instances the learn tests were written against
    tree = make_tree(*p_tree)
    Q, _ = np.linalg.qr(rng.standard_normal((n, tree.p)))
    A = np.column_stack([popping_random_tree_sparse(tree, k, 0.5, 1.5, rng)[0]
                         for _ in range(q)])
    X = Q @ A + noise * rng.standard_normal((n, q))
    return tree, Q, A, X


def test_training_set_centering(rng):
    X = rng.standard_normal((10, 7)) + 3.0
    tr = TrainingSet.from_raw(X)
    assert np.max(np.abs(tr.data.sum(axis=1))) < 1e-9 * 7 * np.max(np.abs(X))
    assert np.allclose(tr.mean, X.mean(axis=1))


def test_dictionary_invariants_enforced():
    tree = make_tree(2, 2)
    with pytest.raises(ValueError):
        Dictionary(atoms=np.ones((5, 3)), tree=tree)
    with pytest.raises(ValueError):
        Dictionary(atoms=np.eye(2), tree=tree)  # p mismatch / p > n
    # a nan entry makes the Gram deviation nan, which passes a "> tol" test
    atoms = np.eye(4)[:, :3]
    atoms[1, 2] = np.nan
    with pytest.raises(ValueError, match="not orthonormal"):
        Dictionary(atoms=atoms, tree=tree)


# With orthonormal D, learn's coding step is one prox: tree_prox(D^T X, lam)

def test_sparse_code_lambda_extremes(rng):
    tree = make_tree(2, 3)
    n, q = 12, 20
    Q, _ = np.linalg.qr(rng.standard_normal((n, tree.p)))
    X = rng.standard_normal((n, q))
    tr = TrainingSet.from_raw(X)
    C = Q.T @ tr.data
    # huge penalty kills everything
    assert np.all(tree_prox(C, tree, 1e3 * np.max(np.abs(C))) == 0)
    # tiny penalty approaches the unregularized projection
    assert np.allclose(tree_prox(C, tree, 1e-10), C, atol=1e-8)


def test_sparse_code_outputs_tree_sparse(rng):
    tree = make_tree(2, 4)
    n, q = 30, 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, tree.p)))
    tr = TrainingSet.from_raw(rng.standard_normal((n, q)))
    A = tree_prox(Q.T @ tr.data, tree, 0.4)
    for i in range(q):
        assert is_tree_sparse(A[:, i], tree, tol=1e-9)


def test_update_dictionary_fixed_point(rng):
    n, p = 10, 4
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = Q @ np.diag([4.0, 3.0, 2.0, 1.0]) @ rng.standard_normal((p, 20))
    A = Q.T @ X  # X A^T = X X^T restricted: symmetric PSD in Q-coordinates
    D = update_dictionary(X, A)
    assert np.allclose(D, Q, atol=1e-8)
    assert np.linalg.norm(X - D @ A) < 1e-8


def test_update_dictionary_orthonormal_and_optimal(rng):
    n, p, q = 8, 5, 12
    X = rng.standard_normal((n, q))
    A = rng.standard_normal((p, q))
    D = update_dictionary(X, A)
    assert np.max(np.abs(D.T @ D - np.eye(p))) <= 1e-8
    val = np.linalg.norm(X - D @ A)
    for _ in range(100):
        Qr, _ = np.linalg.qr(rng.standard_normal((n, p)))
        assert val <= np.linalg.norm(X - Qr @ A) + 1e-10


def test_learn_objective_monotone_on_planted(rng):
    tree, Q, A_star, X = planted_instance(rng)
    tr = TrainingSet.from_raw(X)
    cfg = LearnConfig(lam=0.05, outer_iters=20, tol=0.0)
    d, A, hist = learn(tr, initial_dictionary(tr, tree, rng), cfg)
    assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
    assert np.max(np.abs(d.atoms.T @ d.atoms - np.eye(tree.p))) <= 1e-8
    assert all(is_tree_sparse(A[:, i], tree, tol=1e-9) for i in range(A.shape[1]))


def test_learn_recovers_planted_objective(rng):
    tree, Q, A_star, X = planted_instance(rng, noise=0.005)
    tr = TrainingSet.from_raw(X)
    lam = 0.02
    cfg = LearnConfig(lam=lam, outer_iters=120, tol=0.0)
    # subspace (SVD) warm start; random inits can stall in local minima
    U, _, _ = np.linalg.svd(tr.data, full_matrices=False)
    d, A, hist = learn(tr, Dictionary(atoms=U[:, :tree.p], tree=tree), cfg)
    # center the planted model the same way before comparing objectives
    A_c = A_star - A_star.mean(axis=1, keepdims=True)
    planted_obj = learn_objective(tr.data, Q, A_c, tree, lam)
    assert hist[-1] <= planted_obj * 1.05


def test_learn_one_iteration_descends(rng):
    tree, Q, A_star, X = planted_instance(rng, q=50)
    tr = TrainingSet.from_raw(X)
    cfg = LearnConfig(lam=0.1, outer_iters=1)
    init, _ = np.linalg.qr(rng.standard_normal((64, tree.p)))
    d, A, hist = learn(tr, Dictionary(atoms=init, tree=tree), cfg)
    obj_init = learn_objective(tr.data, init, np.zeros_like(A), tree, 0.1)
    assert hist[-1] <= obj_init


def test_learn_rejects_non_orthonormal_init(rng):
    tree, Q, A_star, X = planted_instance(rng, q=20)
    init = 1.01 * np.linalg.qr(rng.standard_normal((64, tree.p)))[0]
    with pytest.raises(ValueError, match="not orthonormal"):
        Dictionary(atoms=init, tree=tree)


def test_learn_config_rejects_nonpositive_lam():
    for lam in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="lam must be positive"):
            LearnConfig(lam=lam)


def test_learn_rejects_p_larger_than_n(rng):
    tree = make_tree(2, 4)  # p = 15
    tr = TrainingSet.from_raw(rng.standard_normal((8, 20)))
    with pytest.raises(ValueError, match="p > n"):
        initial_dictionary(tr, tree, rng)


def test_container_roundtrip_and_format(tmp_path, rng):
    tree = make_tree(2, 3)
    n = 9
    Q, _ = np.linalg.qr(rng.standard_normal((n, tree.p)))
    d = Dictionary(atoms=Q, tree=tree)
    mean = rng.standard_normal(n)
    path = tmp_path / "dict.lasr"
    save_dictionary(path, d, mean)

    raw = path.read_bytes()
    assert raw[:4] == b"LASR"
    import struct
    version, n2, p2, d2, L2 = struct.unpack("<HIIII", raw[4:22])
    assert (version, n2, p2, d2, L2) == (1, n, tree.p, 2, 3)
    assert len(raw) == 22 + 8 * n + 8 * n * tree.p

    loaded, mean2 = load_dictionary(path)
    assert np.array_equal(loaded.atoms, Q)
    assert np.array_equal(mean2, mean)
    assert loaded.tree == tree

    path2 = tmp_path / "bad.lasr"
    path2.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_dictionary(path2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_dictionary_rejects_nonfinite_mean(bad, tmp_path):
    tree = make_tree(2, 2)
    mean = np.zeros(4)
    mean[1] = bad
    path = tmp_path / "dict.lasr"
    with pytest.raises(ValueError, match="column mean is not finite"):
        save_dictionary(path, Dictionary(atoms=np.eye(4)[:, :tree.p], tree=tree), mean)
    assert not path.exists()


@pytest.mark.parametrize("cut", ["short_header", "short_body", "trailing_bytes"])
def test_load_dictionary_rejects_malformed_size(cut, tmp_path, rng):
    tree = make_tree(2, 2)
    Q, _ = np.linalg.qr(rng.standard_normal((4, tree.p)))
    path = tmp_path / "dict.lasr"
    save_dictionary(path, Dictionary(atoms=Q, tree=tree))
    raw = path.read_bytes()
    path.write_bytes({"short_header": raw[:10], "short_body": raw[:-8],
                      "trailing_bytes": raw + b"\0"}[cut])
    with pytest.raises(ValueError, match="dict.lasr"):
        load_dictionary(path)


@pytest.mark.parametrize("entry", [1e200, np.inf], ids=["overflowing", "infinite"])
def test_load_dictionary_rejects_huge_atoms(entry, tmp_path):
    # the Gram check of atoms this large overflows; under the suite's
    # error::RuntimeWarning filter a leaked warning would fail the test
    import struct
    path = tmp_path / "big.lasr"
    path.write_bytes(struct.pack("<4sHIIII", b"LASR", 1, 4, 3, 2, 2)
                     + np.zeros(4).astype("<f8").tobytes()
                     + np.full(12, entry).astype("<f8").tobytes())
    with pytest.raises(ValueError, match=r"big\.lasr: columns not orthonormal"):
        load_dictionary(path)
