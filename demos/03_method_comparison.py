"""Energy-fair comparison of adaptive dictionary sensing against baselines.

Every method spends the same total sensing energy R; Lasso and model-based
CoSaMP use fixed Gaussian projection ensembles, PCA gets a matched number of
principal components, and the wavelet arm runs the same threshold traversal
over the Haar quadtree.  Mean reconstruction SNR is reported per (method, R).
"""

from collections import defaultdict

import numpy as np

from treesense import ExperimentConfig, TrainingSet, make_tree, synthetic_corpus
from treesense.harness import compare_methods

rng = np.random.default_rng(2)

tree = make_tree(2, 6)            # 63-atom planted dictionary
side, q, k = 16, 120, 10
X, planted, _ = synthetic_corpus(q, side, tree, k, rng, amp=20.0)
training = TrainingSet.from_raw(X)
n = side * side

cfg = ExperimentConfig(mode="compare",
                       budgets=(float(n), n / 8.0, n / 32.0),
                       taus=(0.0, 0.5, 1.0),
                       measurements=(32,),
                       noise_std=1.0, trials=5, seed=2,
                       test_signals=3, target_sparsity=k)
table = compare_methods(cfg, training=training, dictionary=planted,
                        dict_mean=np.full(n, 0.5))

snrs = defaultdict(list)
meas = defaultdict(list)
for method, R, m, snr in zip(table["method"], table["R"], table["m"], table["snr_db"]):
    if snr is not None:
        snrs[method, R].append(snr)
        meas[method, R].append(m)

print(f"{'method':<14}{'R':>8}{'mean m':>9}{'mean SNR (dB)':>15}")
for key in sorted(snrs, key=lambda t: (t[0], -t[1])):
    method, R = key
    print(f"{method:<14}{R:>8.0f}{np.mean(meas[key]):>9.1f}"
          f"{np.mean(snrs[key]):>15.2f}")
