"""Learn a hierarchical orthonormal dictionary on a planted synthetic corpus.

Alternates exact tree-structured sparse coding (one prox of D^T X under the
hierarchical group penalty) with an orthogonal Procrustes dictionary update,
then saves and reloads the .lasr container.
"""

import tempfile

import numpy as np

from treesense import (LearnConfig, TrainingSet, initial_dictionary,
                       is_tree_sparse, learn, load_dictionary, make_tree,
                       save_dictionary, synthetic_corpus)

rng = np.random.default_rng(1)

tree = make_tree(2, 4)            # 15 atoms arranged as a binary tree
side, q, k = 8, 150, 6            # 8x8 images, 150 of them, ~6 active atoms
X, planted, A_true = synthetic_corpus(q, side, tree, k, rng)
training = TrainingSet.from_raw(X)
print(f"corpus: {q} images of side {side} -> data matrix {training.data.shape}")

cfg = LearnConfig(lam=0.05, outer_iters=40)
init = initial_dictionary(training, tree, rng)   # random training columns, orthonormalized
dictionary, codes, history = learn(training, init, cfg)
print(f"objective: {history[0]:.4f} -> {history[-1]:.4f} "
      f"over {len(history)} alternations (nonincreasing: "
      f"{all(a >= b - 1e-9 for a, b in zip(history, history[1:]))})")

ortho_dev = np.max(np.abs(dictionary.atoms.T @ dictionary.atoms - np.eye(tree.p)))
print(f"max |D^T D - I| = {ortho_dev:.2e}")
tree_ok = all(is_tree_sparse(codes[:, i], tree, tol=1e-9) for i in range(q))
mean_k = np.mean(np.sum(np.abs(codes) > 1e-12, axis=0))
print(f"all codes tree-sparse: {tree_ok}; mean column sparsity {mean_k:.2f}")

# Persist the learned model in the binary container and read it back.
with tempfile.NamedTemporaryFile(suffix=".lasr") as f:
    save_dictionary(f.name, dictionary, training.mean)
    loaded, mean = load_dictionary(f.name)
    print(f"container round trip exact: "
          f"{np.array_equal(loaded.atoms, dictionary.atoms)}")
