"""Command-line harness.

Subcommands: tree-info, verify-theorem, learn, sense, compare.  Every option
of the last four is an ExperimentConfig field.  A run reads --config <path>
(key=value lines) and then the flags given, each named after its field with
- for _.  Results go to a CSV with a companion .manifest.txt listing every
field.  The global --log-level (default warning) sets which library log
messages reach stderr; the CSV does not depend on it.  A bad option or a
missing, unreadable or malformed file prints one error line and exits 2.
"""

from __future__ import annotations

import argparse
import errno
import functools
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .dictlearn import (LearnConfig, initial_dictionary, learn, load_dictionary,
                        save_dictionary)
from .harness import (ExperimentConfig, apply_config, compare_methods,
                      lambda_for_sparsity, load_corpus, parse_config_file,
                      read_pgm, sense_signal, verify_theorem, write_csv,
                      write_manifest)
from .tree import make_tree


# The ExperimentConfig fields each subcommand takes, as flags and as
# config-file keys.  Every subcommand also takes --config and the COMMON_FLAGS.
COMMON_FLAGS = ("seed",)
FLAGS = {
    "verify-theorem": ("trials", "out", "d", "L", "k", "c1", "a", "budgets", "noise_std"),
    "learn": ("d", "L", "corpus", "target_side", "lam", "target_sparsity", "dict_path"),
    "sense": ("trials", "out", "dict_path", "budgets", "taus", "noise_std",
              "target_sparsity"),
    "compare": ("trials", "out", "dict_path", "corpus", "target_side", "budgets", "taus",
                "measurements", "noise_std", "target_sparsity", "test_signals", "in_sample"),
}


def _build_cfg(args):
    """The config file's settings, then the flags given, on the defaults.
    The config file may set only the subcommand's own keys."""
    cfg = ExperimentConfig(mode=args.command)
    flags = (*COMMON_FLAGS, *FLAGS[args.command])
    if args.config:
        try:
            settings = parse_config_file(args.config)
            cfg = apply_config(cfg, settings)
            for key in settings:
                if key not in flags:
                    raise ValueError(f"config key {key!r} is not a {args.command} option")
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    return apply_config(cfg, {key: getattr(args, key) for key in flags
                              if getattr(args, key) is not None})


def _require(*given):
    """Raise ValueError naming the first (flag, value) pair left unset."""
    for flag, value in given:
        if not value:
            raise ValueError(f"{flag} is required")


def _writable(path):
    """path, once its directory is known to exist: a run checks where it
    writes before any work, not when it opens the file at the end."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return path


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
    _writable(cfg.out)
    table, summaries = verify_theorem(cfg)
    n_rows = write_csv(cfg.out, table)
    write_manifest(cfg.out + ".manifest.txt", cfg, summaries)
    for line in summaries:
        print(line)
    print(f"wrote {n_rows} rows to {cfg.out}")
    return 0


def cmd_learn(args):
    cfg = _build_cfg(args)
    _require(("--corpus", cfg.corpus))
    out = _writable(cfg.dict_path or "dictionary.lasr")
    tree = make_tree(cfg.d, cfg.L)
    target = cfg.sparsity_for(tree.p)   # checked even when --lam makes it unused
    training = load_corpus(cfg.corpus, cfg.target_side)
    init = initial_dictionary(training, tree, np.random.default_rng(cfg.seed))
    lam = cfg.lam
    if lam is None:
        lam = lambda_for_sparsity(training, init, target)
        print(f"lambda search -> {lam:.6g} (target sparsity {target})")
    dictionary, A, history = learn(training, init, LearnConfig(lam=lam))
    save_dictionary(out, dictionary, training.mean)
    mean_k = float(np.mean(np.sum(np.abs(A) > 1e-12, axis=0)))
    print(f"learned {tree.p} atoms in {len(history)} alternations; "
          f"objective {history[0]:.6g} -> {history[-1]:.6g}; "
          f"mean column sparsity {mean_k:.2f}")
    print(f"wrote dictionary container to {out}")
    return 0


def cmd_sense(args):
    cfg = _build_cfg(args)
    _require(("--dict-path", cfg.dict_path), ("--image", args.image))
    _writable(cfg.out)
    dictionary, mean = load_dictionary(cfg.dict_path)
    x = read_pgm(args.image).flatten(order="F")
    if not cfg.budgets:
        cfg = replace(cfg, budgets=(float(x.shape[0]),))
    n_rows = write_csv(cfg.out, sense_signal(cfg, dictionary, mean, x, note=args.image))
    write_manifest(cfg.out + ".manifest.txt", cfg)
    print(f"wrote {n_rows} rows to {cfg.out}")
    return 0


def cmd_compare(args):
    cfg = _build_cfg(args)
    _require(("--dict-path", cfg.dict_path), ("--corpus", cfg.corpus))
    _writable(cfg.out)
    dictionary, mean = load_dictionary(cfg.dict_path)
    training = load_corpus(cfg.corpus, cfg.target_side)
    if not cfg.budgets:
        n = cfg.target_side**2
        cfg = replace(cfg, budgets=(float(n), n / 8, n / 32))
    n_rows = write_csv(cfg.out, compare_methods(cfg, training, dictionary, mean))
    write_manifest(cfg.out + ".manifest.txt", cfg)
    print(f"wrote {n_rows} rows to {cfg.out}")
    return 0


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that is built when it parses: a run parses one
    subcommand, and building every subcommand's parser cost more than the
    parse (each ArgumentParser and add_argument builds help machinery).
    add_parser lists the name and help text, which are all top-level help
    and choices read, and hands this class the arguments it would build the
    parser with; they wait, with add_flags, for the first parse."""

    def __init__(self, add_flags=None, **kwargs):
        self._deferred = add_flags, kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._deferred:
            (add_flags, kwargs), self._deferred = self._deferred, None
            super().__init__(**kwargs)
            add_flags(self)
        return super().parse_known_args(args, namespace)


def _tree_info_flags(p):
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--L", type=int, default=7)
    p.set_defaults(func=cmd_tree_info)


def _run_flags(command, func, p):
    p.add_argument("--config", help="key=value config file")
    for name in (*COMMON_FLAGS, *FLAGS[command]):
        p.add_argument("--" + name.replace("_", "-"), dest=name)
    if command == "sense":
        p.add_argument("--image")
    p.set_defaults(func=func)


def _parser():
    parser = argparse.ArgumentParser(prog="treesense")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", dest="log_level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="level of the library's log messages on stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    sub.add_parser("tree-info", help="print tree index arithmetic facts",
                   add_flags=_tree_info_flags)
    for command, func, text in (
            ("verify-theorem", cmd_verify_theorem, "Monte Carlo support-recovery verification"),
            ("learn", cmd_learn, "learn a tree-structured orthonormal dictionary"),
            ("sense", cmd_sense, "acquire one image with a learned dictionary"),
            ("compare", cmd_compare, "energy-fair SNR-vs-measurements sweep")):
        sub.add_parser(command, help=text, add_flags=functools.partial(_run_flags, command, func))
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("treesense").setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # bad config, missing or malformed file, ...
        print(f"treesense: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
