import argparse
import io
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

import darkstate_sim
from darkstate_sim import (
    Parameters,
    emission_probabilities,
    mixture_asymptotic,
    relative_entropy_of_entanglement,
)
from darkstate_sim import cli, montecarlo
from darkstate_sim.cli import build_parser, main

SATURATION = 0.4992508740634678

HELP_PAGES = Path(__file__).parent / "data" / "cli_help"
GOLDEN_TABLES = Path(__file__).parent / "data" / "golden"
# (g_a, g_b, kappa, gamma) of each committed closed-form table; "critical"
# is kappa = 10 + 2^-10, gamma = 2^-10, where S^2 = 0 exactly.
GOLDEN_SETS = {
    "paper": ("1", "1", "1", "1e-3"),
    "overdamped": ("1", "1", "20", "1e-3"),
    "critical": ("3", "4", "10.0009765625", "0.0009765625"),
    "gamma_zero": ("1", "0.6", "1", "0"),
    "gb_zero": ("1", "0", "1", "1e-3"),
}
SUBCOMMANDS = [
    name
    for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
    for name in action.choices
]

# A non-default parameter set for the table-versus-scalar checks.
RATE_FLAGS = ["--ga", "0.7", "--gb", "2.1", "--kappa", "9.3", "--gamma", "0.004"]
RATE_PARAMS = Parameters(g_a=0.7, g_b=2.1, kappa=9.3, gamma=0.004)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cells(text):
    return [line.split(",") for line in text.splitlines()[1:]]


def _post_transient_grid(tmax, steps=500):
    return np.linspace(5.0 / RATE_PARAMS.kappa, tmax, steps)


def _parse_csv(text):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    return header, rows


class TestProbabilitiesCommand:
    def test_header_and_initial_row(self, capsys):
        code, out, _ = _run(capsys, ["probabilities", "--steps", "5", "--tmax", "50"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,P0,Pcav,Pspon"
        assert lines[1] == "0,1,0,0"

    def test_budget_rows_sum_to_one(self, capsys):
        code, out, _ = _run(capsys, ["probabilities", "--steps", "40", "--tmax", "30"])
        assert code == 0
        _, rows = _parse_csv(out)
        assert np.max(np.abs(rows[:, 1:].sum(axis=1) - 1.0)) < 1e-10

    def test_saturation_reached_and_12_digits(self, capsys):
        code, out, _ = _run(capsys, ["probabilities", "--steps", "6", "--tmax", "50"])
        assert code == 0
        assert "0.499250874063" in out  # twelve significant digits
        _, rows = _parse_csv(out)
        assert rows[-1, 2] == pytest.approx(SATURATION, abs=1e-9)

    def test_file_output_and_determinism(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, out, _ = _run(
                capsys, ["probabilities", "--steps", "20", "--out", str(path)]
            )
            assert code == 0
            assert out == ""
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.startswith(b"t,P0,Pcav,Pspon\n")

    def test_zero_saturation_writes_zero(self, capsys):
        # g_a = 0: P_cav is 0 times a bracket that rounds below 0, written as
        # 0, not -0.  The saturation's denominator (kappa + gamma)(Omega^2 +
        # kappa gamma) once underflowed to 0 here and raised ZeroDivisionError.
        argv = ["probabilities", "--ga", "0", "--gb", "1e-150", "--kappa", "1e-300", "--gamma", "0"]
        code, out, err = _run(capsys, argv)
        assert code == 0
        assert err == ""
        assert {row[2] for row in _cells(out)} == {"0"}


class TestAmplitudesCommand:
    def test_header_and_initial_row(self, capsys):
        code, out, _ = _run(capsys, ["amplitudes", "--steps", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,P_100,P_010,P_001"
        assert lines[1] == "0,0,1,0"

    def test_unnormalized_plateau(self, capsys):
        # After the transient the populations sit near e^(-2 gamma t)/4 each;
        # the cavity component is empty.
        code, out, _ = _run(capsys, ["amplitudes", "--steps", "31", "--tmax", "15"])
        assert code == 0
        _, rows = _parse_csv(out)
        t_last = rows[-1, 0]
        plateau = math.exp(-2.0 * 1e-3 * t_last) / 4.0
        assert rows[-1, 1] < 1e-6
        assert rows[-1, 2] == pytest.approx(plateau, abs=1e-3)
        assert rows[-1, 3] == pytest.approx(plateau, abs=1e-3)


def _child_env(**extra):
    """The environment of a child Python that imports the package under test.

    The child must import it even when pytest put it on sys.path
    (pyproject's pythonpath) rather than PYTHONPATH.
    """
    src = os.path.dirname(os.path.dirname(darkstate_sim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


# numpy's x86-64 dispatch targets above its baseline kernels.
ABOVE_BASELINE = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def _compute_golden_tables(directory):
    """Writes every golden table into ``directory`` with ``main``, in one child process.

    The child runs numpy on its baseline x86-64 kernels, which every x86-64
    CPU has: numpy picks its exp, log, sin and cos kernels by CPU feature,
    and they differ by ulps.  ``NPY_DISABLE_CPU_FEATURES`` names the targets
    of ABOVE_BASELINE that the CPU has (numpy warns about any other).  A
    target that this process already runs without reads False in
    ``__cpu_features__``, so the process's own list counts as present.
    """
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    pinned = [target for target in ABOVE_BASELINE if __cpu_features__.get(target) or target in disabled]
    argvs = [
        [command, "--ga", g_a, "--gb", g_b, "--kappa", kappa, "--gamma", gamma,
         "--out", str(directory / f"{command}_{name}.csv")]
        for command in ("amplitudes", "probabilities")
        for name, (g_a, g_b, kappa, gamma) in GOLDEN_SETS.items()
    ]
    script = "import json, sys\nfrom darkstate_sim.cli import main\nsys.exit(max(map(main, json.loads(sys.argv[1]))))"
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(NPY_DISABLE_CPU_FEATURES=" ".join(pinned)),
    )
    assert (result.returncode, result.stderr) == (0, "")


def _write_golden_tables():
    """Rewrites the golden tables as the test computes them.

    ``PYTHONPATH=src:tests python -c "import test_cli as m; m._write_golden_tables()"``
    """
    _compute_golden_tables(GOLDEN_TABLES)


@pytest.fixture(scope="session")
def baseline_tables(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _compute_golden_tables(directory)
    return directory


class TestGoldenTables:
    """The closed-form tables, byte for byte as committed in data/golden.

    Each file is the output of ``darkstate-sim <command> --ga G_A --gb G_B
    --kappa KAPPA --gamma GAMMA --out data/golden/<command>_<set>.csv`` on the
    default grid and on numpy's baseline x86-64 kernels
    (``_compute_golden_tables``), so a rewrite of the closed form is checked
    against fixed outputs on any x86-64 CPU.
    """

    @pytest.mark.parametrize("command", ["amplitudes", "probabilities"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_SETS))
    def test_matches_committed_table(self, baseline_tables, command, name):
        table = f"{command}_{name}.csv"
        assert (baseline_tables / table).read_bytes() == (GOLDEN_TABLES / table).read_bytes()


class TestFidelityCommand:
    def test_columns_per_efficiency(self, capsys):
        code, out, _ = _run(capsys, ["fidelity", "--steps", "5", "--tmax", "500"])
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["t", "F_eta1", "F_eta0.8"]
        assert rows[0, 0] == 5.0  # grid starts after the cavity transient
        assert rows[0, 1] == pytest.approx(0.9885687088295113, abs=1e-9)
        assert rows[0, 2] == pytest.approx(0.8242182704125268, abs=1e-6)
        # Spontaneous decay erodes the weight monotonically.
        assert np.all(np.diff(rows[:, 1]) < 0.0)
        assert np.all(np.diff(rows[:, 2]) < 0.0)

    def test_custom_efficiencies(self, capsys):
        code, out, _ = _run(
            capsys, ["fidelity", "--steps", "3", "--tmax", "100", "--eta", "0.5"]
        )
        assert code == 0
        header, _ = _parse_csv(out)
        assert header == ["t", "F_eta0.5"]

    def test_negative_zero_efficiency_heads_its_column_as_zero(self, capsys):
        # Each --eta is mapped once, -0.0 to 0.0, and the header is written
        # from the mapped values; an invalid one keeps its message.
        code, out, _ = _run(capsys, ["fidelity", "--eta", "-0.0", "1", "--steps", "3"])
        assert code == 0
        assert out.splitlines()[0] == "t,F_eta0,F_eta1"
        code, out, err = _run(capsys, ["fidelity", "--eta", "1", "1.5", "--steps", "3"])
        assert (code, out, err) == (2, "", "error: detector efficiency must be in [0, 1], got 1.5\n")

    def test_table_matches_scalar_calls(self, capsys):
        etas = (1.0, 0.63, 0.2)
        code, out, _ = _run(
            capsys, ["fidelity", *RATE_FLAGS, "--tmax", "800", "--eta", *map(str, etas)]
        )
        assert code == 0
        expected = [
            [format(float(t), ".12g")]
            + [format(mixture_asymptotic(RATE_PARAMS, float(t), eta=eta).lam, ".12g") for eta in etas]
            for t in _post_transient_grid(800.0)
        ]
        assert _cells(out) == expected


class TestEntropyCommand:
    def test_header_and_range(self, capsys):
        code, out, _ = _run(capsys, ["entropy", "--steps", "20", "--tmax", "500"])
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["t", "E"]
        assert rows[0, 1] > 0.9
        assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))
        assert np.all(np.diff(rows[:, 1]) < 0.0)

    def test_table_matches_scalar_calls(self, capsys):
        code, out, _ = _run(capsys, ["entropy", *RATE_FLAGS, "--tmax", "800", "--eta", "0.71"])
        assert code == 0
        expected = [
            [
                format(float(t), ".12g"),
                format(
                    relative_entropy_of_entanglement(
                        mixture_asymptotic(RATE_PARAMS, float(t), eta=0.71)
                    ),
                    ".12g",
                ),
            ]
            for t in _post_transient_grid(800.0)
        ]
        assert _cells(out) == expected


class TestTrajectoriesCommand:
    def test_header_stderr_note_and_consistency(self, capsys):
        code, out, err = _run(
            capsys,
            [
                "trajectories", "--trajectories", "2000", "--steps", "4",
                "--tmax", "30", "--seed", "42",
            ],
        )
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == [
            "t", "p0_hat", "pcav_hat", "pspon_hat",
            "p0_stderr", "pcav_stderr", "pspon_stderr",
        ]
        assert "max |z|" in err and "n=2000" in err
        assert np.max(np.abs(rows[:, 1:4].sum(axis=1) - 1.0)) < 1e-12

    @staticmethod
    def _likelihood_ratio_z(hat, ref, n):
        """sqrt(2 n KL(hat || ref)) of one cell, term by term, with 0 log 0 = 0."""
        kl = 0.0
        for a, b in zip((hat, 1.0 - hat), (ref, 1.0 - ref)):
            if a > 0.0:
                kl += a * math.log(a / b) if b > 0.0 else math.inf
        return math.sqrt(2.0 * n * max(kl, 0.0))

    def _printed_against_closed_form(self, capsys, flags, params, n):
        code, out, err = _run(capsys, ["trajectories", "--trajectories", str(n), *flags])
        assert code == 0
        _, rows = _parse_csv(out)
        exact = emission_probabilities(params, rows[:, 0])
        ref = np.stack([exact.p0, exact.p_cav, exact.p_spon], axis=1)
        expected = max(
            self._likelihood_ratio_z(hat, p, n) for hat, p in zip(rows[:, 1:4].ravel(), ref.ravel())
        )
        return float(err.rsplit("=", 1)[1]), expected, rows

    def test_z_score_uses_closed_form_error(self, capsys):
        # With g_b = 0 nothing is trapped, so p0_hat reaches 0 while P0 > 0:
        # an error taken from p_hat would be 0 there and the z-score infinite.
        printed, expected, rows = self._printed_against_closed_form(
            capsys, ["--gb", "0"], Parameters(1.0, 0.0, 1.0, 1e-3), 20000
        )
        assert rows[-1, 1] == 0.0
        assert math.isfinite(printed)
        assert printed == pytest.approx(expected, abs=2e-3)

    def test_z_score_of_a_rare_survivor(self, capsys):
        # One survivor at t = 15, where P0 = 1.27e-6 expects 0.0025 of them:
        # the Wald z read 19.8 there.
        printed, expected, rows = self._printed_against_closed_form(
            capsys, ["--ga", "1e3"], Parameters(1e3, 1.0, 1.0, 1e-3), 2000
        )
        assert rows[-1, 1] == 1 / 2000
        assert printed == pytest.approx(expected, abs=2e-3)
        assert 3.0 < printed < 5.0

    def test_z_score_is_wald_at_large_counts(self):
        ref = np.array([0.3, 0.5, 0.02])
        n = 10**6
        wald = np.array([2.0, -1.0, 3.0])
        hat = ref + wald * np.sqrt(ref * (1.0 - ref) / n)
        z = cli._likelihood_ratio_z(hat, ref, n)
        assert np.allclose(z, np.abs(wald), rtol=0.01)
        assert z == pytest.approx([self._likelihood_ratio_z(h, p, n) for h, p in zip(hat, ref)], rel=1e-9)

    def test_z_score_at_exact_zero_or_one(self):
        # A frequency off an exact probability of 0 or 1 is impossible under
        # the closed form; one on it carries no evidence either way.
        hat = np.array([1e-4, 1.0 - 1e-4, 0.0, 1.0])
        ref = np.array([0.0, 1.0, 0.0, 1.0])
        assert cli._likelihood_ratio_z(hat, ref, 10_000).tolist() == [math.inf, math.inf, 0.0, 0.0]

    def test_single_trajectory_one_hot(self, capsys):
        code, out, _ = _run(
            capsys,
            ["trajectories", "--trajectories", "1", "--steps", "3", "--tmax", "20"],
        )
        assert code == 0
        _, rows = _parse_csv(out)
        freqs = rows[:, 1:4]
        assert np.all((freqs == 0.0) | (freqs == 1.0))
        assert np.all(rows[:, 4:] == 0.0)

    def test_byte_identical_across_thread_counts(self, capsys, tmp_path, monkeypatch):
        # 13 chunks: serial on one usable CPU, a pool of 4 on eight.
        outputs, pools = [], []
        monkeypatch.setattr(
            "concurrent.futures.ThreadPoolExecutor",
            lambda max_workers: pools.append(max_workers) or ThreadPoolExecutor(max_workers),
        )
        for cpus in (1, 8):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
            path = tmp_path / f"cpus_{cpus}.csv"
            code, _, _ = _run(
                capsys,
                [
                    "trajectories", "--trajectories", "200000", "--steps", "5",
                    "--tmax", "30", "--seed", "11", "--out", str(path),
                ],
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert pools == [4]
        assert outputs[0] == outputs[1]


class TestRepumpCommand:
    def test_purification_ledger(self, capsys):
        code, out, _ = _run(capsys, ["repump", "--eta", "0.8", "--rounds", "3"])
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["round", "click_probability", "lambda", "entropy"]
        assert rows.shape == (4, 4)
        assert rows[0, 0] == 0.0 and rows[0, 1] == 0.0
        assert rows[0, 2] == pytest.approx(0.8325018017441382, abs=1e-9)
        assert np.all(np.diff(rows[:, 2]) > 0.0)  # weight rises every round
        assert rows[-1, 2] >= 0.999

    def test_explicit_initial_weight(self, capsys):
        code, out, _ = _run(
            capsys, ["repump", "--lambda0", "0.8325", "--rounds", "3"]
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert rows[-1, 2] == pytest.approx(0.9997988392725787, abs=1e-9)

    def test_negative_zero_initial_weight_writes_zero(self, capsys):
        code, out, _ = _run(capsys, ["repump", "--lambda0", "-0.0", "--rounds", "2"])
        assert code == 0
        assert out.splitlines()[1:] == ["0,0,0,0", "1,0.9,0,0", "2,0.9,0,0"]

    def test_negative_zero_detection_writes_zero(self, capsys):
        code, out, _ = _run(capsys, ["repump", "--lambda0", "0.5", "--p-detect", "-0.0", "--rounds", "1"])
        assert code == 0
        assert out.splitlines()[1:] == ["0,0,0.5,0.122556248918", "1,0,0.5,0.122556248918"]


class TestErrorHandling:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_invalid_parameter_exits_2(self, capsys, command):
        # repump checks the rates even when --lambda0 leaves them unused.
        extra = ["--lambda0", "0.5"] if command == "repump" else []
        code, out, err = _run(capsys, [command, *extra, "--kappa", "-1"])
        assert code == 2
        assert out == ""
        assert err == "error: cavity decay rate kappa must be positive\n"

    @pytest.mark.parametrize(
        "flags, name",
        [(["--ga", "1e200"], "g_a^2 + g_b^2"), (["--kappa", "1e200"], "(kappa - gamma)^2")],
    )
    def test_overflowing_rates_exit_2(self, capsys, flags, name):
        code, out, err = _run(capsys, ["probabilities", *flags])
        assert code == 2
        assert out == ""
        assert err == f"error: rates too large: {name} is not a finite float\n"

    @pytest.mark.parametrize("command", ["amplitudes", "probabilities", "trajectories"])
    def test_coupling_past_projector_overflow_works(self, capsys, command):
        # From g_a of about 4.5e102 the Omega^2-scaled projectors overflowed
        # and these exited 2; the unit ones hold up to the S^2 limit.  The
        # suite turns warnings into errors.  No Monte Carlo statistic is
        # checked: a double cannot resolve the bright phase S t here.
        extra = ["--trajectories", "200"] if command == "trajectories" else []
        for g_a in ("5e102", "1e120", "6e153"):
            code, out, err = _run(capsys, [command, "--ga", g_a, "--steps", "4", *extra])
            assert code == 0
            assert err == "" or command == "trajectories"
            assert np.isfinite(np.array(_cells(out), dtype=float)).all()

    @pytest.mark.parametrize("command", ["amplitudes", "probabilities"])
    def test_coupling_below_projector_overflow_works(self, capsys, command):
        code, out, err = _run(capsys, [command, "--ga", "2e102"])
        assert code == 0
        assert err == ""
        assert np.isfinite(np.array(_cells(out), dtype=float)).all()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["amplitudes", "--tmax", "0"], "tmax must be positive"),
            (["trajectories", "--trajectories", "0"], "need at least 1 trajectory"),
            (["repump", "--rounds", "-1"], "rounds must be nonnegative"),
            (
                ["amplitudes", "--ga", "1e-162", "--gb", "1e-162"],
                "rates too small: g_a^2 + g_b^2 is below the smallest normal float",
            ),
        ],
    )
    def test_out_of_range_argument_exits_2(self, capsys, argv, message):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unknown_option_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["probabilities", "--bogus"])
        assert info.value.code == 2

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_too_few_steps_exits_2(self, capsys):
        code, _, err = _run(capsys, ["probabilities", "--steps", "1"])
        assert code == 2
        assert "grid" in err

    def test_tmax_below_onset_exits_2(self, capsys):
        code, _, err = _run(capsys, ["fidelity", "--tmax", "2"])
        assert code == 2
        assert "onset" in err

    @pytest.mark.parametrize(
        "command", ["amplitudes", "probabilities", "fidelity", "entropy", "trajectories"]
    )
    def test_non_finite_tmax_exits_2(self, capsys, command):
        # The suite turns warnings into errors, so a numpy warning on the
        # infinite grid would fail here too.
        code, out, err = _run(capsys, [command, "--tmax", "inf", "--steps", "3"])
        assert code == 2
        assert out == ""
        assert err == "error: tmax must be finite\n"

    @pytest.mark.parametrize("command", ["repump", "fidelity"])
    def test_impossible_no_click_exits_2(self, capsys, command):
        # gamma = 0, g_b = 0, eta = 1: every trajectory clicks.  The suite
        # turns warnings into errors, so a 0/0 warning would fail here too.
        code, out, err = _run(capsys, [command, "--gb", "0", "--gamma", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "probability zero" in err
        assert len(err.splitlines()) == 1

    def test_saturation_rounding_to_one_exits_2(self, capsys):
        # Omega^2/(Omega^2 + kappa gamma) rounds to 1, so no click has
        # probability zero in doubles; this wrote nan with exit 0 when the
        # saturation overflowed to inf/inf.
        code, out, err = _run(capsys, ["fidelity", "--ga", "1e100", "--kappa", "1e150", "--steps", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "probability zero" in err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_unwritable_output_exits_1(self, capsys, tmp_path, command):
        # One error line and nothing else: trajectories prints its z-score
        # note only after the table is written.
        target = tmp_path / "no-such-dir" / "out.csv"
        code, out, err = _run(capsys, [command, "--out", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "max |z|" not in err


def _reference_table(header, rows) -> str:
    """The per-value writer the block writer must reproduce byte for byte."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        lines.append(",".join(format(float(v), ".12g") for v in row) + "\n")
    return "".join(lines)


def _write(header, columns) -> str:
    stream = io.StringIO()
    cli._write_table(stream, header, columns)
    return stream.getvalue()


class TestWriteTable:
    SPECIAL = [
        -0.0, 0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, 123456789012.5,
        -2.5e-7, 0.5, 1.0, math.nan, math.inf, -math.inf,
    ]

    def test_special_values_match_reference(self):
        columns = [self.SPECIAL, self.SPECIAL[::-1]]
        rows = list(zip(*columns))
        assert _write(["a", "b"], columns) == _reference_table(["a", "b"], rows)

    def test_integer_rounds_match_reference(self):
        # repump hands its ledger over as zip(*rows), round index first.
        rows = [(0, 0.0, 0.8325, 0.5), (1, 0.1 + 0.2, -0.0, 1e-300), (12, 5e-324, 1.0, math.nan)]
        header = ["round", "click_probability", "lambda", "entropy"]
        assert _write(header, zip(*rows)) == _reference_table(header, rows)

    @pytest.mark.parametrize("n_rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_block_edges_match_reference(self, n_rows):
        rng = np.random.default_rng(n_rows)
        columns = [
            np.linspace(0.0, 15.0, n_rows),
            rng.random(n_rows) * 10.0 ** rng.integers(-320, 300, n_rows),
            -rng.random(n_rows),
        ]
        rows = list(zip(*columns))
        text = _write(["t", "x", "y"], columns)
        assert text.count("\n") == n_rows + 1
        assert text == _reference_table(["t", "x", "y"], rows)


class TestSharedParser:
    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_every_subcommand_has_a_help_page(self):
        pages = {path.stem for path in HELP_PAGES.glob("*.txt")} - {"main"}
        assert set(SUBCOMMANDS) == pages

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_defaults_are_immutable(self, command):
        namespace = build_parser().parse_args([command])
        for name, value in vars(namespace).items():
            assert not isinstance(value, (list, dict, set, bytearray)), name
        if command == "fidelity":
            assert namespace.eta == (1.0, 0.8)

    @pytest.mark.parametrize("page", ["main", *SUBCOMMANDS])
    def test_help_pages_unchanged(self, capsys, monkeypatch, page):
        monkeypatch.setenv("COLUMNS", "80")
        expected = (HELP_PAGES / f"{page}.txt").read_text()
        argv = ["--help"] if page == "main" else [page, "--help"]
        for _ in range(2):  # the parser is reused between calls
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
            assert capsys.readouterr().out == expected

    def test_concurrent_calls_match_serial(self, capsys, tmp_path):
        commands = {
            "amplitudes": ["amplitudes", *RATE_FLAGS, "--steps", "60"],
            "probabilities": ["probabilities", "--steps", "60"],
            "fidelity": ["fidelity", *RATE_FLAGS, "--steps", "60", "--eta", "1.0", "0.63"],
            "entropy": ["entropy", "--steps", "60", "--eta", "0.71"],
            "trajectories": ["trajectories", "--trajectories", "300", "--steps", "5", "--seed", "3"],
            "repump": ["repump", "--lambda0", "0.3", "--eta", "0.8"],
        }

        def run_all(directory, order, codes):
            directory.mkdir()
            for name in order:
                codes.append(main([*commands[name], "--out", str(directory / f"{name}.csv")]))

        serial_codes = []
        run_all(tmp_path / "serial", list(commands), serial_codes)
        assert serial_codes == [0] * len(commands)

        rounds, n_threads = 3, 4
        codes = [[] for _ in range(n_threads)]
        errors = []

        def worker(index):
            try:
                for r in range(rounds):
                    order = list(commands)[index:] + list(commands)[:index]
                    run_all(tmp_path / f"thread{index}-{r}", order, codes[index])
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        capsys.readouterr()

        assert errors == []
        assert codes == [[0] * (rounds * len(commands))] * n_threads
        for name in commands:
            serial = (tmp_path / "serial" / f"{name}.csv").read_bytes()
            for index in range(n_threads):
                for r in range(rounds):
                    assert (tmp_path / f"thread{index}-{r}" / f"{name}.csv").read_bytes() == serial


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        result = subprocess.run(
            [
                sys.executable, "-m", "darkstate_sim.cli",
                "probabilities", "--steps", "3", "--tmax", "1",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=_child_env(),
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "t,P0,Pcav,Pspon"

    def test_import_leaves_thread_pool_out(self):
        # run_ensemble imports concurrent.futures only to build a pool.
        script = "import sys, darkstate_sim.cli\nprint('concurrent.futures' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=_child_env()
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")
