"""Command-line interface emitting CSV tables of the conditional dynamics.

Subcommands:

* ``amplitudes``     unnormalized no-jump populations |c_100|^2, |c_010|^2, |c_001|^2
* ``probabilities``  closed-form emission budget (P0, P_cav, P_spon)
* ``fidelity``       dark-pair weight of the no-click mixture, one column per eta
* ``entropy``        relative entropy of entanglement of the no-click mixture
* ``trajectories``   Monte Carlo frequency estimates of the emission budget
* ``repump``         purification ledger of repump-and-wait rounds

All tables are CSV with a header row, 12-significant-digit values, and LF
line endings; ``--out -`` (the default) writes to stdout.  Runs are fully
deterministic for a fixed seed, independent of the worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .entanglement import (
    ConditionedMixture,
    mixture_asymptotic,
    relative_entropy_of_entanglement,
    repump_round,
)
from .errors import SimulationError
from .model import Parameters
from .montecarlo import run_ensemble
from .propagator import conditional_state, emission_probabilities

_POST_TRANSIENT_ONSET = 5.0  # grid start for fidelity/entropy, in units of 1/kappa


def _format_value(value) -> str:
    return format(float(value), ".12g")


def _write_table(stream, header: list[str], rows) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_format_value(v) for v in row) + "\n")


@contextlib.contextmanager
def _output_stream(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as handle:
            yield handle


def _add_rate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ga", type=float, default=1.0, help="coupling of atom a (default 1)")
    parser.add_argument("--gb", type=float, default=1.0, help="coupling of atom b (default 1)")
    parser.add_argument("--kappa", type=float, default=1.0, help="cavity decay rate (default 1)")
    parser.add_argument(
        "--gamma", type=float, default=1e-3, help="spontaneous decay rate (default 1e-3)"
    )


def _add_output_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output CSV path, or - for stdout (default -)")


def _add_common_arguments(parser: argparse.ArgumentParser, tmax_default: float) -> None:
    _add_rate_arguments(parser)
    parser.add_argument(
        "--tmax", type=float, default=tmax_default,
        help=f"end of the time grid (default {tmax_default:g})",
    )
    parser.add_argument(
        "--steps", type=int, default=500, help="number of grid points (default 500)"
    )
    _add_output_argument(parser)


def _parameters(args, eta: float = 1.0) -> Parameters:
    return Parameters(g_a=args.ga, g_b=args.gb, kappa=args.kappa, gamma=args.gamma, eta=eta)


def _grid_from_zero(args) -> np.ndarray:
    if args.steps < 2:
        raise ValueError("need at least 2 grid points")
    if not args.tmax > 0.0:
        raise ValueError("tmax must be positive")
    return np.linspace(0.0, args.tmax, args.steps)


def _grid_post_transient(args, kappa: float) -> np.ndarray:
    if args.steps < 2:
        raise ValueError("need at least 2 grid points")
    start = _POST_TRANSIENT_ONSET / kappa
    if not args.tmax > start:
        raise ValueError(f"tmax must exceed the post-transient onset {start:g}")
    return np.linspace(start, args.tmax, args.steps)


def cmd_amplitudes(args) -> int:
    params = _parameters(args)
    grid = _grid_from_zero(args)
    populations = conditional_state(params, grid) ** 2
    rows = zip(grid, *populations.T)
    with _output_stream(args.out) as stream:
        _write_table(stream, ["t", "P_100", "P_010", "P_001"], rows)
    return 0


def cmd_probabilities(args) -> int:
    params = _parameters(args)
    grid = _grid_from_zero(args)
    triple = emission_probabilities(params, grid)
    rows = zip(grid, triple.p0, triple.p_cav, triple.p_spon)
    with _output_stream(args.out) as stream:
        _write_table(stream, ["t", "P0", "Pcav", "Pspon"], rows)
    return 0


def cmd_fidelity(args) -> int:
    params = _parameters(args)
    grid = _grid_post_transient(args, params.kappa)
    columns = [mixture_asymptotic(params, grid, eta=eta).lam for eta in args.eta]
    header = ["t"] + [f"F_eta{eta:g}" for eta in args.eta]
    rows = zip(grid, *columns)
    with _output_stream(args.out) as stream:
        _write_table(stream, header, rows)
    return 0


def cmd_entropy(args) -> int:
    params = _parameters(args)
    grid = _grid_post_transient(args, params.kappa)
    entropy = relative_entropy_of_entanglement(mixture_asymptotic(params, grid, eta=args.eta))
    rows = zip(grid, entropy)
    with _output_stream(args.out) as stream:
        _write_table(stream, ["t", "E"], rows)
    return 0


def cmd_trajectories(args) -> int:
    if args.trajectories < 1:
        raise ValueError("need at least 1 trajectory")
    params = _parameters(args, eta=args.eta)
    grid = _grid_from_zero(args)
    estimate = run_ensemble(params, args.trajectories, grid, args.seed)
    exact = emission_probabilities(params, grid)

    def _z_scores(hat, ref):
        # The standard error comes from the closed form: the estimate's own
        # sqrt(p_hat (1 - p_hat) / n) vanishes when p_hat is 0 or 1.
        ref = np.asarray(ref)
        err = np.sqrt(ref * (1.0 - ref) / args.trajectories)
        diff = np.abs(hat - ref)
        safe = np.where(err > 0.0, err, 1.0)
        return np.where(err > 0.0, diff / safe, np.where(diff < 1e-12, 0.0, np.inf))

    z_max = max(
        float(np.max(_z_scores(estimate.p0_hat, exact.p0))),
        float(np.max(_z_scores(estimate.p_cav_hat, exact.p_cav))),
        float(np.max(_z_scores(estimate.p_spon_hat, exact.p_spon))),
    )
    rows = zip(
        grid,
        estimate.p0_hat,
        estimate.p_cav_hat,
        estimate.p_spon_hat,
        estimate.p0_stderr,
        estimate.p_cav_stderr,
        estimate.p_spon_stderr,
    )
    with _output_stream(args.out) as stream:
        _write_table(
            stream,
            ["t", "p0_hat", "pcav_hat", "pspon_hat", "p0_stderr", "pcav_stderr", "pspon_stderr"],
            rows,
        )
    print(
        f"trajectories: n={args.trajectories} seed={args.seed} "
        f"max |z| vs closed form = {z_max:.3f}",
        file=sys.stderr,
    )
    return 0


def cmd_repump(args) -> int:
    if args.rounds < 0:
        raise ValueError("rounds must be nonnegative")
    params = _parameters(args, eta=args.eta)
    if args.lambda0 is None:
        mixture = mixture_asymptotic(params, 0.0)
    else:
        mixture = ConditionedMixture(lam=args.lambda0, t=0.0)
    rows = [(0, 0.0, mixture.lam, relative_entropy_of_entanglement(mixture))]
    for round_index in range(1, args.rounds + 1):
        result = repump_round(mixture, args.p_detect)
        mixture = result.mixture
        rows.append(
            (
                round_index,
                result.click_probability,
                mixture.lam,
                relative_entropy_of_entanglement(mixture),
            )
        )
    with _output_stream(args.out) as stream:
        _write_table(stream, ["round", "click_probability", "lambda", "entropy"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkstate-sim",
        description="Conditional-dynamics simulator for dark-state entanglement "
        "of two atoms in a leaky cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "amplitudes", help="unnormalized no-jump populations on a time grid"
    )
    _add_common_arguments(p, tmax_default=15.0)
    p.set_defaults(func=cmd_amplitudes)

    p = sub.add_parser(
        "probabilities", help="closed-form emission budget (P0, Pcav, Pspon)"
    )
    _add_common_arguments(p, tmax_default=15.0)
    p.set_defaults(func=cmd_probabilities)

    p = sub.add_parser(
        "fidelity", help="dark-pair weight of the no-click mixture per eta"
    )
    _add_common_arguments(p, tmax_default=500.0)
    p.add_argument(
        "--eta", type=float, nargs="+", default=[1.0, 0.8],
        help="detector efficiencies, one column each (default: 1.0 0.8)",
    )
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser(
        "entropy", help="relative entropy of entanglement of the no-click mixture"
    )
    _add_common_arguments(p, tmax_default=500.0)
    p.add_argument(
        "--eta", type=float, default=1.0, help="detector efficiency (default 1.0)"
    )
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser(
        "trajectories", help="Monte Carlo frequency estimates of the emission budget"
    )
    _add_common_arguments(p, tmax_default=15.0)
    p.add_argument(
        "--trajectories", type=int, default=10000,
        help="ensemble size (default 10000)",
    )
    p.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    p.add_argument(
        "--eta", type=float, default=1.0, help="detector efficiency (default 1.0)"
    )
    p.set_defaults(func=cmd_trajectories)

    p = sub.add_parser(
        "repump", help="repump-and-wait purification ledger"
    )
    _add_rate_arguments(p)
    p.add_argument(
        "--eta", type=float, default=1.0, help="detector efficiency (default 1.0)"
    )
    p.add_argument(
        "--lambda0", type=float, default=None,
        help="initial dark-pair weight (default: post-transient onset value)",
    )
    p.add_argument(
        "--p-detect", type=float, default=0.9,
        help="repump click probability for the ground component (default 0.9)",
    )
    p.add_argument("--rounds", type=int, default=5, help="number of rounds (default 5)")
    _add_output_argument(p)
    p.set_defaults(func=cmd_repump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SimulationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
