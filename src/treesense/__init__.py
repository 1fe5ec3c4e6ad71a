"""Adaptive compressed sensing of tree-sparse signals with hierarchical
learned dictionaries."""

__version__ = "0.1.0"

from .tree import (TreeTopology, GroupSet, TreeSparseVector, make_tree,
                   groups_of, random_tree_sparse, is_tree_sparse, tree_project)
from .sensing import (SensingConfig, MeasurementLog, SensingOutcome,
                      allocate_beta, adaptive_sense, adaptive_sense_coeffs,
                      reconstruct_from_outcome, two_stage_estimate,
                      two_stage_estimate_coeffs)
from .bounds import false_alarm_bound, miss_bound, failure_bound, min_amplitude
from .dictlearn import (Dictionary, TrainingSet, LearnConfig,
                        tree_group_penalty, tree_prox, sparse_code,
                        update_dictionary, learn, learn_objective,
                        save_dictionary, load_dictionary)
from .baselines import (RandomProjectionEnsemble, gaussian_ensemble,
                        lasso_solve, lasso_reconstruct, model_cosamp,
                        PcaModel, pca_fit, pca_reconstruct)
from .wavelet import haar2, ihaar2, quadtree_children, wavelet_sense, wavelet_reconstruct
from .harness import (snr_db, read_pgm, write_pgm, box_downscale, load_corpus,
                      synthetic_corpus, lambda_for_sparsity, ExperimentConfig,
                      verify_theorem, compare_methods, write_csv, write_manifest,
                      CSV_FIELDS)
