"""Command-line harness.

Subcommands: tree-info, verify-theorem, learn, sense, compare.  Each accepts
--config <path> (key=value lines) plus flag overrides; results go to a CSV
with a companion .manifest.txt recording configuration and seed.  The
global --log-level (default warning) sets which library log messages reach
stderr; the CSV does not depend on it.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import __version__
from .dictlearn import LearnConfig, TrainingSet, learn, load_dictionary, save_dictionary
from .harness import (ExperimentConfig, apply_config, compare_methods,
                      lambda_for_sparsity, load_corpus, parse_config_file,
                      read_pgm, snr_db, verify_theorem, write_csv,
                      write_manifest, _row)
from .sensing import SensingConfig, adaptive_sense, allocate_beta, reconstruct_from_outcome
from .tree import make_tree


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--out")


def _build_cfg(args, mode, overrides=()):
    cfg = ExperimentConfig(mode=mode)
    if args.config:
        try:
            apply_config(cfg, parse_config_file(args.config))
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    kv = {}
    for key in ("seed", "trials", "out", *overrides):
        val = getattr(args, key, None)
        if val is not None:
            kv[key] = str(val)
    apply_config(cfg, kv)
    return cfg


def cmd_tree_info(args):
    tree = make_tree(args.d, args.L)
    print(f"d={tree.d} L={tree.depth} p={tree.p}")
    print(f"internal nodes (full degree): {tree.n_internal}")
    print(f"children of root: {tree.children(1)}")
    for k in (1, 2, 4):
        if k <= tree.n_internal:
            print(f"measurements for k={k} support: {tree.d * k + 1}")
    return 0


def cmd_verify_theorem(args):
    cfg = _build_cfg(args, "verify-theorem", ("d", "L", "k", "c1", "a",
                                              "budgets", "noise_std"))
    rows, summaries = verify_theorem(cfg)
    write_csv(cfg.out, rows)
    write_manifest(cfg.out + ".manifest.txt", cfg, summaries)
    for line in summaries:
        print(line)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def cmd_learn(args):
    cfg = _build_cfg(args, "learn", ("d", "L", "corpus", "target_side", "lam",
                                     "target_sparsity", "dict_path"))
    if not cfg.corpus:
        print("learn: --corpus is required", file=sys.stderr)
        return 2
    training = load_corpus(cfg.corpus, cfg.target_side)
    tree = make_tree(cfg.d, cfg.L)
    rng = np.random.default_rng(cfg.seed)
    lam = cfg.lam
    if lam is None:
        from .dictlearn import Dictionary
        from .dictlearn import _init_atoms
        probe = Dictionary(atoms=_init_atoms(training, tree.p,
                                             np.random.default_rng(cfg.seed)),
                           tree=tree)
        target = cfg.target_sparsity or max(2, tree.p // 4)
        lam = lambda_for_sparsity(training, probe, tree, target)
        print(f"lambda search -> {lam:.6g} (target sparsity {target})")
    learn_cfg = LearnConfig(lam=lam)
    dictionary, A, history = learn(training, tree, learn_cfg, rng)
    out = cfg.dict_path or (cfg.out if cfg.out.endswith(".lasr") else "dictionary.lasr")
    save_dictionary(out, dictionary, training.mean)
    mean_k = float(np.mean(np.sum(np.abs(A) > 1e-12, axis=0)))
    print(f"learned {tree.p} atoms in {len(history)} alternations; "
          f"objective {history[0]:.6g} -> {history[-1]:.6g}; "
          f"mean column sparsity {mean_k:.2f}")
    print(f"wrote dictionary container to {out}")
    return 0


def cmd_sense(args):
    cfg = _build_cfg(args, "sense", ("dict_path", "budgets", "taus",
                                     "noise_std", "target_sparsity"))
    if not cfg.dict_path or not args.image:
        print("sense: --dict-path and --image are required", file=sys.stderr)
        return 2
    dictionary, mean = load_dictionary(cfg.dict_path)
    img = read_pgm(args.image)
    x = img.flatten(order="F")
    if x.shape[0] != dictionary.atoms.shape[0]:
        print("sense: image size does not match dictionary dimension",
              file=sys.stderr)
        return 2
    tree = dictionary.tree
    k = cfg.target_sparsity or max(2, tree.p // 4)
    rows = []
    for R in (cfg.budgets or (float(x.shape[0]),)):
        beta = allocate_beta(R, tree.d, k)
        for tau in cfg.taus:
            for trial in range(cfg.trials):
                rng = np.random.default_rng([cfg.seed, int(R), int(tau * 1e9), trial])
                sense_cfg = SensingConfig(beta=beta, tau=tau,
                                          noise_std=cfg.noise_std, budget=R)
                out = adaptive_sense(x - mean, dictionary, sense_cfg, rng)
                x_hat = reconstruct_from_outcome(out, dictionary, beta,
                                                 mean_offset=mean)
                rows.append(_row("adaptive", R, tau, out.log.m, trial,
                                 snr=snr_db(x, x_hat),
                                 energy=out.log.energy_spent,
                                 note=args.image))
    write_csv(cfg.out, rows)
    write_manifest(cfg.out + ".manifest.txt", cfg)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def cmd_compare(args):
    cfg = _build_cfg(args, "compare", ("dict_path", "corpus", "target_side",
                                       "budgets", "taus", "measurements",
                                       "noise_std", "target_sparsity",
                                       "test_signals"))
    if not cfg.budgets:
        n = cfg.target_side**2
        cfg.budgets = (float(n), n / 8, n / 32)
    rows = compare_methods(cfg)
    write_csv(cfg.out, rows)
    write_manifest(cfg.out + ".manifest.txt", cfg)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="treesense")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", dest="log_level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="level of the library's log messages on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree-info", help="print tree index arithmetic facts")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--L", type=int, default=7)
    p.set_defaults(func=cmd_tree_info)

    p = sub.add_parser("verify-theorem",
                       help="Monte Carlo support-recovery verification")
    _add_common(p)
    for flag in ("--d", "--L"):
        p.add_argument(flag, type=int, dest=flag.lstrip("-"))
    p.add_argument("--k")
    p.add_argument("--c1", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--budgets")
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("learn", help="learn a tree-structured orthonormal dictionary")
    _add_common(p)
    p.add_argument("--d", type=int, dest="d")
    p.add_argument("--L", type=int, dest="L")
    p.add_argument("--corpus")
    p.add_argument("--target-side", type=int, dest="target_side")
    p.add_argument("--lam", type=float)
    p.add_argument("--target-sparsity", type=int, dest="target_sparsity")
    p.add_argument("--dict-path", dest="dict_path")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("sense", help="acquire one image with a learned dictionary")
    _add_common(p)
    p.add_argument("--dict-path", dest="dict_path")
    p.add_argument("--image")
    p.add_argument("--budgets")
    p.add_argument("--taus")
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.add_argument("--target-sparsity", type=int, dest="target_sparsity")
    p.set_defaults(func=cmd_sense)

    p = sub.add_parser("compare", help="energy-fair SNR-vs-measurements sweep")
    _add_common(p)
    p.add_argument("--dict-path", dest="dict_path")
    p.add_argument("--corpus")
    p.add_argument("--target-side", type=int, dest="target_side")
    p.add_argument("--budgets")
    p.add_argument("--taus")
    p.add_argument("--measurements")
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.add_argument("--target-sparsity", type=int, dest="target_sparsity")
    p.add_argument("--test-signals", type=int, dest="test_signals")
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("treesense").setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except ValueError as exc:   # bad config, malformed input file, ...
        print(f"treesense: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
