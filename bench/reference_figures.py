"""Re-measure the baseline figures of ROADMAP.md and print them as JSON.

Usage, from the root of a git checkout:

    python3 bench/reference_figures.py

Figures: Philox draws for 16 384 trajectories, ``import darkstate_sim`` in a
fresh interpreter, ``run_ensemble`` with 200 000 trajectories at 1 and at
nproc workers, ``darkstate-sim trajectories --trajectories 1000000``, and
``emission_probabilities`` at 10^6 times.  Each is the median of a few
repeats; the output records nproc, the numpy version and the git SHA.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import darkstate_sim as ds  # noqa: E402


def median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def fresh_interpreter(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DARKSTATE_THREADS", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         cwd=ROOT, check=True, timeout=600)
    return float(out.stdout.strip().splitlines()[-1])


def main() -> int:
    nproc = len(os.sched_getaffinity(0))
    params = ds.Parameters(1.0, 1.0, 1.0, 1e-3)
    grid = np.array([1.0, 5.0, 50.0])
    figures = {
        "philox_16384_ms": 1e3 * median_seconds(
            lambda: np.random.Generator(np.random.Philox(key=42, counter=0)).random((16384, 4)), 50),
        "import_s": statistics.median(fresh_interpreter(
            "import time; t = time.perf_counter(); import darkstate_sim; print(time.perf_counter() - t)")
            for _ in range(5)),
        "run_ensemble_200k_1_worker_s": median_seconds(
            lambda: ds.run_ensemble(params, 200_000, grid, 42, workers=1), 3),
        f"run_ensemble_200k_{nproc}_workers_s": median_seconds(
            lambda: ds.run_ensemble(params, 200_000, grid, 42, workers=nproc), 3),
        "emission_probabilities_1e6_s": median_seconds(
            lambda: ds.emission_probabilities(params, np.linspace(0.0, 15.0, 1_000_000)), 3),
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    figures["cli_trajectories_1e6_s"] = fresh_interpreter(
        "import time, sys; t = time.perf_counter(); from darkstate_sim import cli; "
        f"cli.main(['trajectories', '--trajectories', '1000000', '--out', {str(out / 'trajectories.csv')!r}]); "
        "print(time.perf_counter() - t)")
    (out / "trajectories.csv").unlink(missing_ok=True)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    print(json.dumps({"nproc": nproc, "numpy": np.__version__, "git_sha": sha, "figures": figures}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
