"""Command-line interface emitting CSV tables of the conditional dynamics.

Subcommands:

* ``amplitudes``     unnormalized no-jump populations |c_100|^2, |c_010|^2, |c_001|^2
* ``probabilities``  closed-form emission budget (P0, P_cav, P_spon)
* ``fidelity``       dark-pair weight of the no-click mixture, one column per eta
* ``entropy``        relative entropy of entanglement of the no-click mixture
* ``trajectories``   Monte Carlo frequency estimates of the emission budget
* ``repump``         purification ledger of repump-and-wait rounds

Each subcommand is a function ``cmd_*`` from the parsed arguments to a table,
``(header, columns)``, optionally followed by a note for stderr; it does no
I/O.  ``main`` writes the table, then the note, and maps errors to exit
codes.  All tables are CSV with a header row, 12-significant-digit values,
and LF line endings; ``--out -`` (the default) writes to stdout.  Runs are
fully deterministic for a fixed seed, whatever worker count ``run_ensemble``
picks for ``trajectories``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .entanglement import (
    ConditionedMixture,
    _probability,
    mixture_asymptotic,
    relative_entropy_of_entanglement,
    repump_round,
)
from .errors import SimulationError
from .model import Parameters
from .montecarlo import run_ensemble
from .propagator import conditional_state, emission_probabilities

_POST_TRANSIENT_ONSET = 5.0  # grid start for fidelity/entropy, in units of 1/kappa
_BLOCK_ROWS = 4096  # rows formatted into one string per write


def _write_table(stream, header: list[str], columns) -> None:
    """Write a header and equal-length columns as CSV, one row block at a time.

    ``%.12g`` gives the text of ``format(float(v), ".12g")`` for every float,
    ``-0.0``, ``nan`` and ``inf`` included.  Stacking and formatting per block
    keeps a large table from holding all its text, or a Python float per
    value, at once.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    row_template = ",".join(["%.12g"] * len(columns)) + "\n"
    stream.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([column[start:start + _BLOCK_ROWS] for column in columns])
        stream.write((row_template * len(block)) % tuple(block.ravel().tolist()))


def _parameters(args, eta: float = 1.0) -> Parameters:
    return Parameters(g_a=args.ga, g_b=args.gb, kappa=args.kappa, gamma=args.gamma, eta=eta)


def _grid(args, kappa: float | None = None) -> np.ndarray:
    """``--steps`` times up to ``--tmax``, from 0 or, given kappa, from the onset 5/kappa."""
    if args.steps < 2:
        raise ValueError("need at least 2 grid points")
    if not math.isfinite(args.tmax):
        raise ValueError("tmax must be finite")
    start = 0.0 if kappa is None else _POST_TRANSIENT_ONSET / kappa
    if not args.tmax > start:
        raise ValueError("tmax must be positive" if kappa is None
                         else f"tmax must exceed the post-transient onset {start:g}")
    return np.linspace(start, args.tmax, args.steps)


def cmd_amplitudes(args):
    params = _parameters(args)
    grid = _grid(args)
    return ["t", "P_100", "P_010", "P_001"], [grid, *(conditional_state(params, grid) ** 2).T]


def cmd_probabilities(args):
    params = _parameters(args)
    grid = _grid(args)
    triple = emission_probabilities(params, grid)
    return ["t", "P0", "Pcav", "Pspon"], [grid, triple.p0, triple.p_cav, triple.p_spon]


def cmd_fidelity(args):
    params = _parameters(args)
    grid = _grid(args, params.kappa)
    etas = [_probability(eta, "detector efficiency") for eta in args.eta]  # -0.0 to 0.0, so the header reads F_eta0
    columns = [mixture_asymptotic(params, grid, eta=eta).lam for eta in etas]
    return ["t"] + [f"F_eta{eta:g}" for eta in etas], [grid, *columns]


def cmd_entropy(args):
    params = _parameters(args)
    grid = _grid(args, params.kappa)
    entropy = relative_entropy_of_entanglement(mixture_asymptotic(params, grid, eta=args.eta))
    return ["t", "E"], [grid, entropy]


def _likelihood_ratio_z(hat: np.ndarray, ref: np.ndarray, n: int) -> np.ndarray:
    """|z| of frequencies ``hat`` of n trials against ``ref``: sqrt(2 n KL(hat || ref)).

    The Wald z where n ref (1 - ref) is large, moderate on one rare event, and
    inf off an exact ref of 0 or 1 (with 0 log 0 = 0).
    """
    share = np.stack([hat, 1.0 - hat])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(share > 0.0, share * np.log(share / np.stack([ref, 1.0 - ref])), 0.0)
    return np.sqrt(np.maximum(2.0 * n * terms.sum(axis=0), 0.0))


def cmd_trajectories(args):
    if args.trajectories < 1:
        raise ValueError("need at least 1 trajectory")
    params = _parameters(args, eta=args.eta)
    grid = _grid(args)
    estimate = run_ensemble(params, args.trajectories, grid, args.seed)
    exact = emission_probabilities(params, grid)
    columns = [
        grid, estimate.p0_hat, estimate.p_cav_hat, estimate.p_spon_hat,
        estimate.p0_stderr, estimate.p_cav_stderr, estimate.p_spon_stderr,
    ]
    ref = np.stack([exact.p0, exact.p_cav, exact.p_spon])
    z = _likelihood_ratio_z(np.stack(columns[1:4]), ref, args.trajectories)
    header = ["t", "p0_hat", "pcav_hat", "pspon_hat", "p0_stderr", "pcav_stderr", "pspon_stderr"]
    note = (
        f"trajectories: n={args.trajectories} seed={args.seed} "
        f"max |z| vs closed form = {float(np.max(z)):.3f}"
    )
    return header, columns, note


def cmd_repump(args):
    if args.rounds < 0:
        raise ValueError("rounds must be nonnegative")
    params = _parameters(args, eta=args.eta)  # validates the rates even with --lambda0
    if args.lambda0 is None:
        mixture = mixture_asymptotic(params, 0.0)
    else:
        # + 0.0 maps -0.0 to 0.0, as repump_round does, so round 0 writes 0.
        mixture = ConditionedMixture(lam=args.lambda0 + 0.0, t=0.0)
    rows = [(0, 0.0, mixture.lam, relative_entropy_of_entanglement(mixture))]
    for round_index in range(1, args.rounds + 1):
        result = repump_round(mixture, args.p_detect)
        mixture = result.mixture
        entropy = relative_entropy_of_entanglement(mixture)
        rows.append((round_index, result.click_probability, mixture.lam, entropy))
    return ["round", "click_probability", "lambda", "entropy"], zip(*rows)


# Argument specs, (flag, add_argument keywords), in --help order.
_RATES = (
    ("--ga", dict(type=float, default=1.0, help="coupling of atom a (default 1)")),
    ("--gb", dict(type=float, default=1.0, help="coupling of atom b (default 1)")),
    ("--kappa", dict(type=float, default=1.0, help="cavity decay rate (default 1)")),
    ("--gamma", dict(type=float, default=1e-3, help="spontaneous decay rate (default 1e-3)")),
)
_OUT = ("--out", dict(default="-", help="output CSV path, or - for stdout (default -)"))
_ETA = ("--eta", dict(type=float, default=1.0, help="detector efficiency (default 1.0)"))
_ETAS = ("--eta", dict(type=float, nargs="+", default=(1.0, 0.8),
                       help="detector efficiencies, one column each (default: 1.0 0.8)"))


def _grid_arguments(tmax: float) -> tuple:
    return _RATES + (
        ("--tmax", dict(type=float, default=tmax, help=f"end of the time grid (default {tmax:g})")),
        ("--steps", dict(type=int, default=500, help="number of grid points (default 500)")),
        _OUT,
    )


# (name, help, command, arguments) per subcommand, in --help order.
_COMMANDS = (
    ("amplitudes", "unnormalized no-jump populations on a time grid", cmd_amplitudes,
     _grid_arguments(15.0)),
    ("probabilities", "closed-form emission budget (P0, Pcav, Pspon)", cmd_probabilities,
     _grid_arguments(15.0)),
    ("fidelity", "dark-pair weight of the no-click mixture per eta", cmd_fidelity,
     _grid_arguments(500.0) + (_ETAS,)),
    ("entropy", "relative entropy of entanglement of the no-click mixture", cmd_entropy,
     _grid_arguments(500.0) + (_ETA,)),
    ("trajectories", "Monte Carlo frequency estimates of the emission budget", cmd_trajectories,
     _grid_arguments(15.0) + (
         ("--trajectories", dict(type=int, default=10000, help="ensemble size (default 10000)")),
         ("--seed", dict(type=int, default=42, help="master seed (default 42)")),
         _ETA)),
    ("repump", "repump-and-wait purification ledger", cmd_repump, _RATES + (
        _ETA,
        ("--lambda0", dict(type=float, default=None,
                           help="initial dark-pair weight (default: asymptotic weight at t = 0)")),
        ("--p-detect", dict(type=float, default=0.9,
                            help="repump click probability for the ground component (default 0.9)")),
        ("--rounds", dict(type=int, default=5, help="number of rounds (default 5)")),
        _OUT)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkstate-sim",
        description="Conditional-dynamics simulator for dark-state entanglement "
        "of two atoms in a leaky cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, command, arguments in _COMMANDS:
        subparser = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            subparser.add_argument(flag, **options)
        subparser.set_defaults(func=command)
    return parser


# ``build_parser`` returns a new parser on every call; ``main`` parses with one
# built on first use.  Parsing leaves the parser unchanged, and every default
# is immutable, so calls from several threads can share it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        header, columns, *notes = args.func(args)
        if args.out == "-":
            _write_table(sys.stdout, header, columns)
        else:
            with open(args.out, "w", newline="\n") as stream:
                _write_table(stream, header, columns)
    except (SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2
    for note in notes:
        print(note, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
