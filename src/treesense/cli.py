"""Command-line harness.

Subcommands: tree-info, verify-theorem, learn, sense, compare.  Every option
of the last four is an ExperimentConfig field.  A run reads --config <path>
(key=value lines) and then the flags given, each named after its field with
- for _.  Results go to a CSV with a companion .manifest.txt listing every
field.  The global --log-level (default warning) sets which library log
messages reach stderr; the CSV does not depend on it.
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
                      read_pgm, sense_signal, verify_theorem, write_csv,
                      write_manifest)
from .tree import make_tree


# The ExperimentConfig fields each subcommand takes as flags.  Every
# subcommand also takes --config and the COMMON_FLAGS.
COMMON_FLAGS = ("seed",)
FLAGS = {
    "verify-theorem": ("trials", "out", "d", "L", "k", "c1", "a", "budgets", "noise_std"),
    "learn": ("d", "L", "corpus", "target_side", "lam", "target_sparsity", "dict_path"),
    "sense": ("trials", "out", "dict_path", "budgets", "taus", "noise_std",
              "target_sparsity"),
    "compare": ("trials", "out", "dict_path", "corpus", "target_side", "budgets", "taus",
                "measurements", "noise_std", "target_sparsity", "test_signals"),
}


def _build_cfg(args):
    """The config file's settings, then the flags given, on the defaults."""
    cfg = ExperimentConfig(mode=args.command)
    if args.config:
        try:
            apply_config(cfg, parse_config_file(args.config))
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    flags = (*COMMON_FLAGS, *FLAGS[args.command])
    apply_config(cfg, {key: getattr(args, key) for key in flags
                       if getattr(args, key) is not None})
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
    cfg = _build_cfg(args)
    rows, summaries = verify_theorem(cfg)
    write_csv(cfg.out, rows)
    write_manifest(cfg.out + ".manifest.txt", cfg, summaries)
    for line in summaries:
        print(line)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def cmd_learn(args):
    cfg = _build_cfg(args)
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
    out = cfg.dict_path or "dictionary.lasr"
    save_dictionary(out, dictionary, training.mean)
    mean_k = float(np.mean(np.sum(np.abs(A) > 1e-12, axis=0)))
    print(f"learned {tree.p} atoms in {len(history)} alternations; "
          f"objective {history[0]:.6g} -> {history[-1]:.6g}; "
          f"mean column sparsity {mean_k:.2f}")
    print(f"wrote dictionary container to {out}")
    return 0


def cmd_sense(args):
    cfg = _build_cfg(args)
    if not cfg.dict_path or not args.image:
        print("sense: --dict-path and --image are required", file=sys.stderr)
        return 2
    dictionary, mean = load_dictionary(cfg.dict_path)
    x = read_pgm(args.image).flatten(order="F")
    if x.shape[0] != dictionary.atoms.shape[0]:
        print("sense: image size does not match dictionary dimension",
              file=sys.stderr)
        return 2
    if not cfg.budgets:
        cfg.budgets = (float(x.shape[0]),)
    k = cfg.target_sparsity or max(2, dictionary.tree.p // 4)
    rows = sense_signal(cfg, dictionary, mean, x, k, note=args.image)
    write_csv(cfg.out, rows)
    write_manifest(cfg.out + ".manifest.txt", cfg)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def cmd_compare(args):
    cfg = _build_cfg(args)
    if not cfg.budgets:
        n = cfg.target_side**2
        cfg.budgets = (float(n), n / 8, n / 32)
    rows = compare_methods(cfg)
    write_csv(cfg.out, rows)
    write_manifest(cfg.out + ".manifest.txt", cfg)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def _parser():
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

    for command, func, text in (
            ("verify-theorem", cmd_verify_theorem, "Monte Carlo support-recovery verification"),
            ("learn", cmd_learn, "learn a tree-structured orthonormal dictionary"),
            ("sense", cmd_sense, "acquire one image with a learned dictionary"),
            ("compare", cmd_compare, "energy-fair SNR-vs-measurements sweep")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="key=value config file")
        for name in (*COMMON_FLAGS, *FLAGS[command]):
            p.add_argument("--" + name.replace("_", "-"), dest=name)
        if command == "sense":
            p.add_argument("--image")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("treesense").setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except ValueError as exc:   # bad config, malformed input file, ...
        print(f"treesense: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
