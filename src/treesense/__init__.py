"""Adaptive compressed sensing of tree-sparse signals with hierarchical
learned dictionaries."""

__version__ = "0.1.0"

from .tree import (TreeTopology, make_tree, random_tree_sparse, random_tree_sparse_batch,
                   tree_sparse_rows, is_tree_sparse, tree_project_batch)
from .sensing import (SensingConfig, SessionBatch, allocate_beta, adaptive_sense_coeffs,
                      reconstruct_from_outcome, two_stage_estimate_coeffs)
from .bounds import false_alarm_bound, miss_bound, failure_bound, min_amplitude
from .dictlearn import (Dictionary, TrainingSet, LearnConfig,
                        tree_group_penalty, tree_prox, update_dictionary,
                        initial_dictionary, learn, learn_objective,
                        save_dictionary, load_dictionary)
from .baselines import (gaussian_ensemble, lasso_solve, model_cosamp,
                        PcaModel, pca_fit, pca_reconstruct)
from .wavelet import haar2, ihaar2, wavelet_sense, wavelet_reconstruct
from .harness import (snr_db, read_pgm, write_pgm, box_downscale, load_corpus,
                      synthetic_corpus, lambda_for_sparsity, ExperimentConfig,
                      verify_theorem, sense_signal, compare_methods, write_csv,
                      write_manifest, CSV_FIELDS)
