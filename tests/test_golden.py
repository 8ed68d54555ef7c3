"""Golden-output regression: small seeded runs must reproduce stored bytes.

Each case runs a seeded sweep through the public API and compares the
exact text it writes against a file under ``tests/golden/``. A speed-up
must leave all of them byte-identical. A change that is meant to move
the numbers regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in the change log why they moved.
"""

import contextlib
import importlib
import io
import os
import subprocess
import sys

import pytest

import semcom
from semcom import funcomp, harness
from semcom.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEED = 7


def _csv_text(rows, header, tmp_dir) -> str:
    path = os.path.join(tmp_dir, "out.csv")
    harness.emit_csv(rows, path, header)
    with open(path) as f:
        return f.read()


def _sweep_snr(system, tmp_dir) -> str:
    cfg = harness.ExperimentConfig(system=system, n_b=8, snr_db_list=(10.0, None),
                                   trials=40, base_seed=SEED)
    return _csv_text(harness.sweep_snr(cfg), harness.SNR_SWEEP_HEADER, tmp_dir)


def _sweep_rate(tmp_dir) -> str:
    return _csv_text(harness.sweep_rate(10, SEED), harness.RATE_SWEEP_HEADER, tmp_dir)


def _rate_search(tmp_dir) -> str:
    result = funcomp.semantic_rate_search(0.002, snr_db=None, trials=10,
                                          base_seed=SEED)
    lines = [f"{p.n_b},{p.mean_distortion!r},{p.stderr!r},{p.feasible}"
             for p in result.points]
    lines.append(f"minimal_n_b,{result.minimal_n_b}")
    return "\n".join(lines) + "\n"


def _cli_stdout(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    return out.getvalue()


def _sweep_snr_stdout(tmp_dir) -> str:
    return _cli_stdout(["sweep-snr", "--trials", "20", "--seed", str(SEED),
                        "--nb", "4", "--snr-db", "0,none"])


RATE_SEARCH_ARGS = ["funcomp", "rate-search", "--tau", "0.01", "--snr", "10",
                    "--trials", "10", "--seed", str(SEED)]


def _rate_search_stdout(tmp_dir) -> str:
    return _cli_stdout(RATE_SEARCH_ARGS)


def _plot_data(tmp_dir) -> str:
    path = os.path.join(tmp_dir, "out.dat")
    _cli_stdout(["sweep-snr", "--trials", "20", "--seed", str(SEED),
                 "--snr-db", "10,none", "--out", path, "--plot-data"])
    with open(path) as f:
        return f.read()


CASES = {
    "sweep_snr_semantic.csv": lambda d: _sweep_snr("semantic", d),
    "sweep_snr_traditional.csv": lambda d: _sweep_snr("traditional", d),
    "sweep_rate.csv": _sweep_rate,
    "rate_search.txt": _rate_search,
    "sweep_snr_stdout.csv": _sweep_snr_stdout,
    "sweep_snr_plot.dat": _plot_data,
    "rate_search_stdout.txt": _rate_search_stdout,
}


def _golden(name) -> str:
    with open(os.path.join(GOLDEN_DIR, name)) as f:
        return f.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    assert CASES[name](str(tmp_path)) == _golden(name)


def _cpu_baseline():
    """(module name, features) of numpy's compiled SIMD baseline, or None
    where this numpy does not report one."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            baseline = getattr(importlib.import_module(name), "__cpu_baseline__", None)
        except ImportError:
            continue
        if baseline:
            return name, baseline
    return None


#: Runs the CLI after checking that numpy dispatches to no SIMD target
#: past its baseline; argv is the module that reports the targets, then
#: the CLI's arguments.
_BASELINE_ONLY_CLI = """\
import importlib, sys
cpu = importlib.import_module(sys.argv[1])
on = [f for f in cpu.__cpu_dispatch__ if cpu.__cpu_features__.get(f)]
assert not on, f"dispatch still reaches {on}"
from semcom.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_rate_search_stdout_on_the_simd_baseline_alone():
    """The golden bytes do not depend on numpy's SIMD dispatch: the
    rate-search case gives them with only the compiled baseline enabled,
    as on a CPU with no extension past it."""
    found = _cpu_baseline()
    if found is None:
        pytest.skip("this numpy reports no SIMD baseline")
    module, baseline = found
    paths = [os.path.dirname(os.path.dirname(os.path.abspath(semcom.__file__))),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES=" ".join(baseline),
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", _BASELINE_ONLY_CLI, module,
                           *RATE_SEARCH_ARGS], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == _golden("rate_search_stdout.txt")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, produce in CASES.items():
            with open(os.path.join(GOLDEN_DIR, name), "w") as f:
                f.write(produce(tmp))
            print(f"wrote {name}", file=sys.stderr)
