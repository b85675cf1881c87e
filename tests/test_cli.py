import math
import os
import subprocess
import sys

import numpy as np
import pytest

import darkstate_sim
from darkstate_sim import (
    Parameters,
    emission_probabilities,
    mixture_asymptotic,
    relative_entropy_of_entanglement,
)
from darkstate_sim.cli import main

SATURATION = 0.4992508740634678

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

    def test_z_score_uses_closed_form_error(self, capsys):
        # With g_b = 0 nothing is trapped, so p0_hat reaches 0 while P0 > 0:
        # an error taken from p_hat would be 0 there and the z-score infinite.
        n = 20000
        code, out, err = _run(
            capsys, ["trajectories", "--gb", "0", "--trajectories", str(n)]
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert rows[-1, 1] == 0.0
        exact = emission_probabilities(Parameters(1.0, 0.0, 1.0, 1e-3), rows[:, 0])
        ref = np.stack([exact.p0, exact.p_cav, exact.p_spon], axis=1)
        spread = ref * (1.0 - ref) > 0.0
        z = np.abs(rows[:, 1:4] - ref)[spread] / np.sqrt(ref * (1.0 - ref) / n)[spread]
        expected = float(np.max(z))
        printed = float(err.rsplit("=", 1)[1])
        assert math.isfinite(printed)
        assert printed == pytest.approx(expected, abs=2e-3)

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
        outputs = []
        for thread_count in ("1", "8"):
            monkeypatch.setenv("DARKSTATE_THREADS", thread_count)
            path = tmp_path / f"threads_{thread_count}.csv"
            code, _, _ = _run(
                capsys,
                [
                    "trajectories", "--trajectories", "20000", "--steps", "5",
                    "--tmax", "30", "--seed", "11", "--out", str(path),
                ],
            )
            assert code == 0
            outputs.append(path.read_bytes())
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


class TestErrorHandling:
    def test_invalid_parameter_exits_2(self, capsys):
        code, out, err = _run(capsys, ["probabilities", "--kappa", "-1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

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

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "out.csv"
        code, _, err = _run(capsys, ["probabilities", "--out", str(target)])
        assert code == 1
        assert err.startswith("error:")


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        # The child must import the package under test even when pytest put
        # it on sys.path (pyproject's pythonpath) rather than PYTHONPATH.
        src = os.path.dirname(os.path.dirname(darkstate_sim.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [
                sys.executable, "-m", "darkstate_sim.cli",
                "probabilities", "--steps", "3", "--tmax", "1",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "t,P0,Pcav,Pspon"
