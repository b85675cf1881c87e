"""The three benchmark workloads: their inputs, operations and checks.

Each workload is built from the workload seed alone.  ``round(r)`` returns
the operations of round ``r``; a run executes whole rounds, so every run
attempts the same mix.  ``observe`` is called after each operation, outside
its timing, and ``finish`` checks everything observed against the
independent references in ``reference.py`` (imported only then, so that
neither set-up time nor peak memory includes mpmath).
"""

from __future__ import annotations

import dataclasses
import contextlib
import io
import math
from pathlib import Path

import numpy as np

import darkstate_sim as ds
from darkstate_sim import cli


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed call into the program.  ``work`` is in the workload's unit."""

    kind: str
    work: int
    key: int
    fn: object


@dataclasses.dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    digits: float = float("nan")
    layer_digits: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.correct = False
        self.problems.append(message)


def derive_seed(seed: int, *keys: int) -> int:
    """A 64-bit seed derived from the workload seed and the given keys."""
    words = np.random.SeedSequence([seed, *keys]).generate_state(2, dtype=np.uint32)
    return int(words[0]) << 32 | int(words[1])


def _digits(error: float) -> float:
    """-log10 of an error, with exact agreement read as 17 digits."""
    return -math.log10(max(error, 1e-17))


# ---------------------------------------------------------------------------
# mc_ensemble
# ---------------------------------------------------------------------------

MC_TRAJECTORIES = 16384  # one run_ensemble chunk per call
MC_SUBSAMPLE_BLOCKS = 12
MC_SUBSAMPLE_BLOCK = 8
MC_INVERSION_TOL = 1e-10

# (kind, (g_a, g_b, kappa, gamma), grid): the paper's working point, an
# overdamped cavity, and gamma = 0 with unequal couplings, where the dark
# weight g_b^2/Omega^2 = 0.26 never jumps.
MC_SETS = (
    ("paper", (1.0, 1.0, 1.0, 1e-3), (0.5, 2.0, 10.0, 100.0, 1000.0, 5000.0)),
    ("overdamped", (1.0, 1.0, 20.0, 1e-3), (0.5, 2.0, 10.0, 100.0, 1000.0, 5000.0)),
    ("gamma0", (1.0, 0.6, 1.0, 0.0), (0.5, 2.0, 5.0, 20.0, 50.0)),
)


class MCEnsemble:
    """Single-worker ``run_ensemble`` over a fixed mix of three regimes.

    Round r runs one 16 384-trajectory ensemble per parameter set, each with
    its own master seed derived from (workload seed, r, set).
    """

    name = "mc_ensemble"

    def __init__(self, seed: int):
        self.seed = seed
        self.sets = [(kind, ds.Parameters(*rates), np.array(grid)) for kind, rates, grid in MC_SETS]
        self.estimates: list[tuple[int, int, object]] = []

    def master_seed(self, round_index: int, set_index: int) -> int:
        return derive_seed(self.seed, 1, round_index, set_index)

    def round(self, r: int) -> list[Op]:
        ops = []
        for k, (kind, params, grid) in enumerate(self.sets):
            master = self.master_seed(r, k)
            fn = lambda p=params, g=grid, s=master: ds.run_ensemble(p, MC_TRAJECTORIES, g, s)
            ops.append(Op(kind, MC_TRAJECTORIES, k, fn))
        return ops

    def observe(self, r: int, op: Op, output) -> None:
        self.estimates.append((r, op.key, output))

    def finish(self) -> Verdict:
        import reference as ref

        verdict = Verdict(attempted=len(self.estimates))
        exact = [ref.Exact(p.g_a, p.g_b, p.kappa, p.gamma) for _, p, _ in self.sets]
        probs = []
        for (_, _, grid), ex in zip(self.sets, exact):
            p0 = [ex.p0(t) for t in grid]
            pc = [ex.p_cav(t) for t in grid]
            probs.append((p0, pc, [1 - a - b for a, b in zip(p0, pc)]))

        pooled = {k: np.zeros((3, len(grid)), dtype=np.int64) for k, (_, _, grid) in enumerate(self.sets)}
        trials = {k: 0 for k in range(len(self.sets))}
        for r, k, est in self.estimates:
            n = est.n
            counts = []
            for hat, err in ((est.p0_hat, est.p0_stderr), (est.p_cav_hat, est.p_cav_stderr),
                             (est.p_spon_hat, est.p_spon_stderr)):
                c = np.rint(hat * n).astype(np.int64)
                if np.any(np.abs(c / n - hat) > 1e-15) or np.any(np.abs(err - np.sqrt(hat * (1 - hat) / n)) > 1e-15):
                    verdict.fail(f"mc round {r} set {k}: frequencies are not counts/n with binomial stderr")
                counts.append(c)
            counts = np.array(counts)
            if np.any(counts.sum(axis=0) != n):
                verdict.fail(f"mc round {r} set {k}: channels do not partition the ensemble")
            failed_here = False
            for ch in range(3):
                for i in range(len(est.t_grid)):
                    ok, z = ref.binomial_test(int(counts[ch, i]), n, probs[k][ch][i])
                    if not ok:
                        failed_here = True
                        verdict.problems.append(f"mc round {r} set {k} channel {ch} t={est.t_grid[i]}: z={z:.2f}")
            if failed_here:
                verdict.failed += 1
                verdict.correct = False
            pooled[k] += counts
            trials[k] += n
        for k, total in pooled.items():
            for ch in range(3):
                for i in range(total.shape[1]):
                    ok, z = ref.binomial_test(int(total[ch, i]), trials[k], probs[k][ch][i])
                    if not ok:
                        verdict.fail(f"mc pooled set {k} channel {ch} index {i}: z={z:.2f}")

        worst = 0.0
        for k, ((kind, params, grid), ex) in enumerate(zip(self.sets, exact)):
            error = self._check_inversion(verdict, k, params, grid, ex, ref)
            verdict.layer_digits[kind] = _digits(error)
            worst = max(worst, error)
        verdict.digits = _digits(worst)
        return verdict

    def _check_inversion(self, verdict, k, params, grid, ex, ref) -> float:
        """P0_ref(t_i) = u_i on a subsample of round-0 trajectories.

        u_i = 1 - w_i with (w, v, d, spare) = Generator(Philox(key=seed,
        counter=i)).random(4), one Philox block per trajectory i.
        """
        import mpmath

        master = self.master_seed(0, k)
        horizon = max(ds.default_horizon(params), float(grid[-1]))
        rng = np.random.default_rng(derive_seed(self.seed, 2, k))
        starts = rng.choice(MC_TRAJECTORIES // MC_SUBSAMPLE_BLOCK, MC_SUBSAMPLE_BLOCKS, replace=False)
        p0_end = ex.p0(horizon)
        worst = 0.0
        for block in starts * MC_SUBSAMPLE_BLOCK:
            times, codes, detected = ds.simulate_trajectories(params, master, int(block), MC_SUBSAMPLE_BLOCK, horizon)
            for j in range(MC_SUBSAMPLE_BLOCK):
                index = int(block) + j
                w, v, d, _ = np.random.Generator(np.random.Philox(key=master, counter=index)).random(4)
                u = 1.0 - w
                if math.isnan(times[j]):
                    if codes[j] != -1 or detected[j] or mpmath.mpf(u) > p0_end * (1 + 1e-12):
                        verdict.fail(f"mc set {k} trajectory {index}: no jump although u = {u!r} > P0(horizon)")
                    continue
                state = ex.state(times[j])
                residual = float(abs(mpmath.fsum(c**2 for c in state) - mpmath.mpf(u)) / mpmath.mpf(u))
                worst = max(worst, residual)
                if residual > MC_INVERSION_TOL:
                    verdict.fail(f"mc set {k} trajectory {index}: |P0(t) - u|/u = {residual:.2e}")
                rates = [2 * ex.kappa * state[0] ** 2, 2 * ex.gamma * state[1] ** 2, 2 * ex.gamma * state[2] ** 2]
                total = mpmath.fsum(rates)
                cuts = [float(rates[0] / total), float((rates[0] + rates[1]) / total)]
                expected = 0 if v < cuts[0] else (1 if v < cuts[1] else 2)
                if min(abs(v - c) for c in cuts) > 1e-9 and codes[j] != expected:
                    verdict.fail(f"mc set {k} trajectory {index}: channel {codes[j]} != {expected}")
                if bool(detected[j]) != (codes[j] == 0 and d < params.eta):
                    verdict.fail(f"mc set {k} trajectory {index}: detection flag disagrees with its draw")
        return worst


# ---------------------------------------------------------------------------
# closed_form_regimes
# ---------------------------------------------------------------------------

CF_POINTS = 64
CF_MIXTURE_STRIDE = 8
# The regimes and how many seeded sets each round draws from them.
CF_COUNTS = (("paper", 5), ("overdamped", 4), ("critical", 4), ("gamma0", 4), ("one_coupling", 4))
# Bad cavity: fixed, seed-independent sets.  Their P0 misses the 1e-11
# target through the cancellation in the slow bright rate (a - |S|)/2, so
# they are counted as failed operations until that is mended.  The error
# grows as (kappa/Omega)^2, so the seeded overdamped and one-coupling sets
# stay at kappa/Omega <= 10, where it is below 1e-12, and fail on no seed.
CF_BAD_CAVITY = ((1.0, 1.0, 1e4, 1e-3), (1.0, 1.0, 1e5, 1e-3), (1.0, 1.0, 1e6, 1e-3))
CF_KNOWN_FAULTS = frozenset({"bad_cavity"})
# Pythagorean triples give an exactly defective generator (S = 0) in floats.
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))
_CRITICAL_GAMMA = 2.0**-10  # gamma / Omega on the critical sets


def closed_form_sets(seed: int) -> list[tuple[str, "ds.Parameters", float]]:
    """(regime, parameters, eta) for every set of a round."""
    rng = np.random.default_rng(derive_seed(seed, 3))

    def log_uniform(lo, hi):
        return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    out = []
    for kind, count in CF_COUNTS:
        for i in range(count):
            g_a, g_b = log_uniform(0.3, 3.0), log_uniform(0.3, 3.0)
            gamma = log_uniform(1e-4, 1e-2)
            if kind == "paper":  # oscillatory, S^2 >= 0.19 (2 Omega)^2
                kappa = gamma + 2.0 * math.hypot(g_a, g_b) * rng.uniform(0.05, 0.9)
            elif kind == "overdamped":  # kappa / Omega from 3 to 10
                kappa = gamma + 2.0 * math.hypot(g_a, g_b) * log_uniform(1.5, 5.0)
            elif kind == "critical":  # kappa - gamma = 2 Omega exactly
                p, q, r = _TRIPLES[int(rng.integers(len(_TRIPLES)))]
                scale = 2.0 ** int(rng.integers(-3, 2))
                if rng.random() < 0.5:
                    p, q = q, p
                g_a, g_b = p * scale, q * scale
                # A fixed kappa/gamma fixes kappa t on the grid, and with it
                # the cost of the series path, whatever the draw.
                gamma = r * scale * _CRITICAL_GAMMA
                kappa = 2.0 * r * scale + gamma
            elif kind == "gamma0":
                gamma = 0.0
                kappa = 2.0 * math.hypot(g_a, g_b) * log_uniform(0.1, 10.0)
            else:  # one coupling zero, alternating which
                if i % 2 == 0:
                    g_b = 0.0
                else:
                    g_a = 0.0
                kappa = gamma + 2.0 * max(g_a, g_b) * log_uniform(0.1, 3.0)
            out.append((kind, ds.Parameters(g_a, g_b, kappa, gamma), float(rng.uniform(0.5, 1.0))))
    for rates in CF_BAD_CAVITY:
        out.append(("bad_cavity", ds.Parameters(*rates), 1.0))
    return out


def closed_form_grid(params) -> np.ndarray:
    """t = 0 and log-spaced times from 1e-6 horizon to the MC horizon."""
    horizon = ds.default_horizon(params)
    return np.concatenate([[0.0], np.geomspace(horizon * 1e-6, horizon, CF_POINTS - 1)])


def _closed_form_tables(params, grid, mixture_times, eta):
    triple = ds.emission_probabilities(params, grid)
    psi = ds.conditional_state(params, grid)
    prop = ds.Propagator.from_parameters(params)
    u = prop.matrix(grid)
    lams = np.array([ds.mixture_at(params, t, eta).lam for t in mixture_times])
    return {"p0": triple.p0, "p_cav": triple.p_cav, "p_spon": triple.p_spon,
            "psi": psi, "u": u, "lam": lams, "method": prop.method}


class ClosedFormRegimes:
    """Closed-form tables of many seeded parameter sets plus the fixed bad-cavity sets.

    One operation evaluates one set with ``emission_probabilities``,
    ``conditional_state``, ``Propagator.from_parameters(...).matrix`` and
    ``mixture_at`` on a grid out to the MC horizon.  Every round repeats the
    same sets, so later rounds must reproduce round 0 bit for bit.
    """

    name = "closed_form_regimes"

    def __init__(self, seed: int):
        self.seed = seed
        self.sets = []
        for kind, params, eta in closed_form_sets(seed):
            grid = closed_form_grid(params)
            self.sets.append((kind, params, eta, grid, grid[CF_MIXTURE_STRIDE - 1::CF_MIXTURE_STRIDE]))
        self.first: dict[int, dict] = {}
        self.rounds = 0
        self.mismatches: list[str] = []

    def round(self, r: int) -> list[Op]:
        return [
            Op(kind, CF_POINTS, k,
               lambda p=params, g=grid, m=mix, e=eta: _closed_form_tables(p, g, m, e))
            for k, (kind, params, eta, grid, mix) in enumerate(self.sets)
        ]

    def observe(self, r: int, op: Op, output) -> None:
        if op.key == 0:
            self.rounds += 1
        if op.key not in self.first:
            self.first[op.key] = output
            return
        first = self.first[op.key]
        for name, value in output.items():
            same = value == first[name] if name == "method" else np.array_equal(value, first[name])
            if not same:
                self.mismatches.append(f"set {op.key} round {r}: {name} differs from round 0")

    def path_share(self) -> dict:
        methods = [self.first[k]["method"] for k in sorted(self.first)]
        return {m: methods.count(m) / len(methods) for m in ("spectral", "series")}

    def finish(self) -> Verdict:
        import reference as ref

        verdict = Verdict(attempted=self.rounds * len(self.sets))
        for message in self.mismatches:
            verdict.fail(message)
        by_kind: dict[str, float] = {}
        worst = 0.0
        failed_sets = 0
        for k, (kind, params, eta, grid, mix) in enumerate(self.sets):
            errors, problems = self._check_set(params, eta, grid, mix, self.first[k], ref)
            error = max(errors.values())
            by_kind[kind] = max(by_kind.get(kind, 0.0), error)
            worst = max(worst, error)
            if problems:
                failed_sets += 1
                detail = ", ".join(f"{n}={e:.1e}" for n, e in errors.items())
                note = f"{kind} set {k} {params}: {problems[0]} ({detail})"
                if kind in CF_KNOWN_FAULTS:
                    verdict.problems.append("known fault: " + note)
                else:
                    verdict.fail(note)
        verdict.failed = failed_sets * self.rounds
        verdict.layer_digits = {kind: _digits(e) for kind, e in by_kind.items()}
        verdict.digits = _digits(worst)
        return verdict

    @staticmethod
    def _check_set(params, eta, grid, mix, out, ref):
        ex = ref.Exact(params.g_a, params.g_b, params.kappa, params.gamma)
        errors = dict.fromkeys(("p0", "psi", "u", "p_cav", "p_spon", "lam"), 0.0)
        limits = {"p0": ref.REL_TOL, "psi": ref.REL_TOL, "u": ref.MATRIX_TOL,
                  "p_cav": ref.REL_TOL, "p_spon": ref.REL_TOL, "lam": ref.REL_TOL}
        for i, t in enumerate(grid):
            u = ex.matrix(t)
            state = [u[j, 1] for j in range(3)]
            p0 = sum(c**2 for c in state)
            p_cav = ex.p_cav(t)
            errors["u"] = max(errors["u"], ref.vec_err(out["u"][i].ravel(), list(u), 1e-300))
            errors["psi"] = max(errors["psi"], ref.vec_err(out["psi"][i], state, ref.FLOOR_AMP))
            errors["p0"] = max(errors["p0"], ref.rel_err(out["p0"][i], p0, ref.FLOOR_PROB))
            errors["p_cav"] = max(errors["p_cav"], ref.rel_err(out["p_cav"][i], p_cav, ref.FLOOR_BUDGET))
            errors["p_spon"] = max(errors["p_spon"], ref.rel_err(out["p_spon"][i], 1 - p0 - p_cav, ref.FLOOR_BUDGET))
        for i, t in enumerate(mix):
            errors["lam"] = max(errors["lam"], ref.rel_err(out["lam"][i], ex.lam(t, eta), ref.FLOOR_PROB))
        problems = [f"{name} error {errors[name]:.2e} > {limits[name]:.0e}" for name in errors if errors[name] > limits[name]]
        problems += ref.budget_property_errors(out["p0"], out["p_cav"], out["p_spon"], ex.saturation())
        if np.any((out["lam"] < 0.0) | (out["lam"] > 1.0)):
            problems.append("no-click weight outside [0, 1]")
        return errors, problems


# ---------------------------------------------------------------------------
# cli_tables
# ---------------------------------------------------------------------------

CLI_TRAJECTORIES = 500
CLI_REPUMP_ROUNDS = 5
CLI_ENTROPY_STRIDE = 5
CLI_DEFAULTS = (1.0, 1.0, 1.0, 1e-3)
CLI_STEPS = 500


def cli_variants(seed: int) -> list[dict]:
    """The default parameters and one seeded set (oscillatory or overdamped)."""
    rng = np.random.default_rng(derive_seed(seed, 4))
    g_a = float(math.exp(rng.uniform(math.log(0.3), math.log(3.0))))
    g_b = float(math.exp(rng.uniform(math.log(0.3), math.log(3.0))))
    gamma = float(math.exp(rng.uniform(math.log(1e-4), math.log(1e-2))))
    kappa = gamma + 2.0 * math.hypot(g_a, g_b) * float(math.exp(rng.uniform(math.log(0.1), math.log(10.0))))
    return [
        {"rates": CLI_DEFAULTS, "flags": [], "etas": (1.0, 0.8), "eta": 1.0, "p_detect": 0.9,
         "traj_seed": 42, "explicit": False},
        {"rates": (g_a, g_b, kappa, gamma),
         "flags": ["--ga", repr(g_a), "--gb", repr(g_b), "--kappa", repr(kappa), "--gamma", repr(gamma)],
         "etas": (1.0, round(float(rng.uniform(0.5, 1.0)), 3)), "eta": round(float(rng.uniform(0.5, 1.0)), 3),
         "p_detect": round(float(rng.uniform(0.5, 0.99)), 3), "traj_seed": int(derive_seed(seed, 5) >> 1),
         "explicit": True},
    ]


def _read_csv(data: bytes):
    lines = data.decode().splitlines()
    return lines[0].split(","), np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


class CLITables:
    """In-process ``darkstate_sim.cli.main(argv)`` over all six subcommands.

    A round runs every subcommand for the default parameters and for one
    seeded set, writing CSV into a scratch directory of the checkout.  The
    argv lists repeat every round, so every table must repeat byte for byte.
    """

    name = "cli_tables"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.commands = []
        for v, var in enumerate(cli_variants(seed)):
            flags = var["flags"]
            extra = {
                "amplitudes": [],
                "probabilities": [],
                "fidelity": ["--eta", *map(repr, var["etas"])] if var["explicit"] else [],
                "entropy": ["--eta", repr(var["eta"])] if var["explicit"] else [],
                "trajectories": ["--trajectories", str(CLI_TRAJECTORIES), "--seed", str(var["traj_seed"])]
                + (["--eta", repr(var["eta"])] if var["explicit"] else []),
                "repump": (["--eta", repr(var["eta"]), "--p-detect", repr(var["p_detect"])] if var["explicit"] else [])
                + ["--rounds", str(CLI_REPUMP_ROUNDS)],
            }
            for command, args in extra.items():
                path = out_dir / f"{command}-{v}.csv"
                argv = [command, *flags, *args, "--out", str(path)]
                rows = CLI_REPUMP_ROUNDS + 1 if command == "repump" else CLI_STEPS
                self.commands.append((command, v, var, argv, path, rows))
        self.first: dict[int, bytes] = {}
        self.rounds = 0
        self.mismatches: list[str] = []

    def round(self, r: int) -> list[Op]:
        return [Op(command, rows, k, lambda a=argv: _run_cli(a))
                for k, (command, _, _, argv, _, rows) in enumerate(self.commands)]

    def observe(self, r: int, op: Op, output) -> None:
        if op.key == 0:
            self.rounds += 1
        command, v, _, _, path, _ = self.commands[op.key]
        if output != 0:
            self.mismatches.append(f"{command} variant {v} round {r}: exit code {output}")
        data = path.read_bytes()
        if op.key not in self.first:
            self.first[op.key] = data
        elif data != self.first[op.key]:
            self.mismatches.append(f"{command} variant {v} round {r}: table differs from round 0")

    def cleanup(self) -> None:
        for *_, path, _ in self.commands:
            path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            self.out_dir.rmdir()

    def finish(self) -> Verdict:
        import reference as ref

        verdict = Verdict(attempted=self.rounds * len(self.commands))
        for message in self.mismatches:
            verdict.fail(message)
        worst = 0.0
        for k, (command, v, var, argv, path, rows) in enumerate(self.commands):
            header, table = _read_csv(self.first[k])
            if table.shape[0] != rows:
                verdict.fail(f"{command} variant {v}: {table.shape[0]} rows, expected {rows}")
                continue
            ex = ref.Exact(*var["rates"])
            check = getattr(self, f"_check_{command}")
            error = check(verdict, f"{command} variant {v}", header, table, var, ex, ref)
            worst = max(worst, error)
        verdict.digits = _digits(worst)
        return verdict

    # Each checker returns the largest relative error of a deterministic table.
    @staticmethod
    def _grid(tmax: float, start: float = 0.0) -> np.ndarray:
        return np.linspace(start, tmax, CLI_STEPS)

    @staticmethod
    def _check_times(verdict, label, table, grid, ref) -> None:
        if np.any(np.abs(table[:, 0] - grid) > ref.CSV_TOL * np.maximum(np.abs(grid), 1e-300)):
            verdict.fail(f"{label}: time column is not the documented grid")

    def _check_amplitudes(self, verdict, label, header, table, var, ex, ref):
        grid = self._grid(15.0)
        self._check_times(verdict, label, table, grid, ref)
        worst = 0.0
        for i, t in enumerate(grid):
            pops = [c**2 for c in ex.state(t)]
            worst = max(worst, ref.vec_err(table[i, 1:4], pops, ref.FLOOR_PROB))
        if worst > ref.CSV_TOL:
            verdict.fail(f"{label}: population error {worst:.2e}")
        return worst

    def _check_probabilities(self, verdict, label, header, table, var, ex, ref):
        grid = self._grid(15.0)
        self._check_times(verdict, label, table, grid, ref)
        worst = 0.0
        for i, t in enumerate(grid):
            p0, p_cav = ex.p0(t), ex.p_cav(t)
            worst = max(worst,
                        ref.rel_err(table[i, 1], p0, ref.FLOOR_PROB),
                        ref.rel_err(table[i, 2], p_cav, ref.FLOOR_BUDGET),
                        ref.rel_err(table[i, 3], 1 - p0 - p_cav, ref.FLOOR_BUDGET))
        if worst > ref.CSV_TOL:
            verdict.fail(f"{label}: budget error {worst:.2e}")
        for problem in ref.budget_property_errors(table[:, 1], table[:, 2], table[:, 3], ex.saturation(),
                                                  rounding=ref.CSV_TOL):
            verdict.fail(f"{label}: {problem}")
        return worst

    def _check_fidelity(self, verdict, label, header, table, var, ex, ref):
        grid = self._grid(500.0, 5.0 / var["rates"][2])
        self._check_times(verdict, label, table, grid, ref)
        if header != ["t"] + [f"F_eta{eta:g}" for eta in var["etas"]]:
            verdict.fail(f"{label}: header {header}")
        worst = 0.0
        for c, eta in enumerate(var["etas"], start=1):
            for i, t in enumerate(grid):
                worst = max(worst, ref.rel_err(table[i, c], ex.lam_asymptotic(t, eta), ref.FLOOR_PROB))
            column = table[:, c]
            if np.any((column < 0.0) | (column > 1.0)) or np.any(np.diff(column) > 0.0):
                verdict.fail(f"{label}: fidelity outside [0, 1] or increasing")
        if worst > ref.CSV_TOL:
            verdict.fail(f"{label}: fidelity error {worst:.2e}")
        return worst

    def _check_entropy(self, verdict, label, header, table, var, ex, ref):
        grid = self._grid(500.0, 5.0 / var["rates"][2])
        self._check_times(verdict, label, table, grid, ref)
        rows = list(range(0, CLI_STEPS, CLI_ENTROPY_STRIDE)) + [CLI_STEPS - 1]
        worst = 0.0
        for i in rows:
            lam = ex.lam_asymptotic(grid[i], var["eta"])
            worst = max(worst, ref.rel_err(table[i, 1], ref.entropy_of_entanglement(lam), ref.FLOOR_BUDGET))
        if np.any((table[:, 1] < 0.0) | (table[:, 1] > 1.0)):
            verdict.fail(f"{label}: entropy outside [0, 1]")
        if worst > ref.CSV_TOL:
            verdict.fail(f"{label}: entropy error {worst:.2e}")
        return worst

    def _check_trajectories(self, verdict, label, header, table, var, ex, ref):
        grid = self._grid(15.0)
        self._check_times(verdict, label, table, grid, ref)
        n = CLI_TRAJECTORIES
        for i, t in enumerate(grid):
            p0, p_cav = ex.p0(t), ex.p_cav(t)
            hats = table[i, 1:4]
            if abs(hats.sum() - 1.0) > 3 * ref.CSV_TOL:
                verdict.fail(f"{label}: estimates do not partition at t={t}")
            for hat, err, p in zip(hats, table[i, 4:7], (p0, p_cav, 1 - p0 - p_cav)):
                if abs(err - math.sqrt(hat * (1.0 - hat) / n)) > ref.CSV_TOL * max(err, 1e-300):
                    verdict.fail(f"{label}: stderr column is not the binomial stderr at t={t}")
                ok, z = ref.binomial_test(int(round(hat * n)), n, p)
                if not ok:
                    verdict.fail(f"{label}: frequency test fails at t={t} (z={z:.2f})")
        return 0.0

    def _check_repump(self, verdict, label, header, table, var, ex, ref):
        lam0 = ex.lam_asymptotic(0, var["eta"])
        expected = [(0, lam0)] + ref.repump_chain(lam0, var["p_detect"], CLI_REPUMP_ROUNDS)
        worst = 0.0
        for i, (click, lam) in enumerate(expected):
            if table[i, 0] != i:
                verdict.fail(f"{label}: round column")
            worst = max(worst,
                        ref.rel_err(table[i, 1], click, ref.FLOOR_BUDGET),
                        ref.rel_err(table[i, 2], lam, ref.FLOOR_PROB),
                        ref.rel_err(table[i, 3], ref.entropy_of_entanglement(lam), ref.FLOOR_BUDGET))
        if worst > ref.CSV_TOL:
            verdict.fail(f"{label}: repump ledger error {worst:.2e}")
        return worst


def _run_cli(argv) -> int:
    # cli prints a one-line z-score note for ``trajectories`` on stderr.
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def make(name: str, seed: int, out_dir: Path):
    if name == "mc_ensemble":
        return MCEnsemble(seed)
    if name == "closed_form_regimes":
        return ClosedFormRegimes(seed)
    if name == "cli_tables":
        return CLITables(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
