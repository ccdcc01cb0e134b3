import os
import subprocess
import sys
from pathlib import Path

import pytest

import cstirap


def test_public_names_resolve():
    assert len(set(cstirap.__all__)) == len(cstirap.__all__)
    for name in cstirap.__all__:
        assert hasattr(cstirap, name), name


def test_public_surface_is_pinned():
    # A name added to or removed from the package changes this list, the
    # README and CHANGES.md together.
    assert sorted(cstirap.__all__) == [
        "CKAngles", "CayleyKlein", "CompositeSequence", "DEFAULT_ATOL",
        "DEFAULT_RTOL", "FidelityResult", "GAUSSIAN_CUTOFF", "IntegrationError",
        "PulsePair", "PulseShape", "PulseTrain", "ScanSpec", "ShapeKind",
        "SolveResult", "SweepAxis", "SystemParams", "build_train",
        "cap_numerators", "cap_phases", "compose_sequence",
        "decay_compensation_check", "decay_scan", "default_delay",
        "effective_two_state", "envelope", "extract_ck", "from_angles",
        "hamiltonian", "lift_to_three", "make_pair", "monte_carlo_phase_noise",
        "propagate", "propagate_effective", "propagate_two_state",
        "resonant_numerators", "resonant_phases",
        "resonant_two_state_hamiltonian", "reverse", "run_scan", "solve_phases",
        "to_angles", "train_envelopes", "train_window",
    ]


def _import_cstirap(code, **env):
    """Run `code` after `import cstirap` in a fresh process whose
    environment has no OPENBLAS_NUM_THREADS but for `env`."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base.update(env, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", "import os, cstirap; " + code],
                         env=base, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_import_sets_one_blas_thread():
    assert _import_cstirap("print(os.environ['OPENBLAS_NUM_THREADS'])") == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_thread():
    assert _import_cstirap("print(len(os.listdir('/proc/self/task')))") == "1"


def test_import_keeps_a_preset_blas_thread_count():
    code = "print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _import_cstirap(code, OPENBLAS_NUM_THREADS="2") == "2"


_PROBE = """
import warnings
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass


def test_warns():
    warnings.warn("a test's own warning", DeprecationWarning)
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Under the suite's settings a Hypothesis failure, whose report hook
    # once raised a DeprecationWarning that filterwarnings = ["error"] made
    # an INTERNALERROR, fails its test alone; a test's own warning still
    # fails that test.
    (tmp_path / "test_probe.py").write_text(_PROBE)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(config), str(tmp_path / "test_probe.py")],
                         cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout, run.stdout[-2000:]
