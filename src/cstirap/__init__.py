"""Composite STIRAP: population transfer in a three-state ladder driven by
sequences of phase-shifted pump-Stokes pulse pairs.

Time is measured in units of the pulse width T, frequencies and decay
rates in 1/T, with hbar = 1 throughout.

Importing cstirap sets OPENBLAS_NUM_THREADS to 1 unless it is set, so no
BLAS thread pool starts; a program that imports numpy first bypasses this.
"""

import os

# Only 2x2 and 3x3 products run here; starting the unused pool was a third
# of `import numpy`: 214 -> 140 ms wall, 195 -> 120 ms user CPU without it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dynamics import (DEFAULT_ATOL, DEFAULT_RTOL, IntegrationError, SystemParams,
                       effective_two_state, hamiltonian, propagate,
                       propagate_effective, propagate_two_state,
                       resonant_two_state_hamiltonian)
from .experiments import (FidelityResult, ScanSpec, SolveResult, SweepAxis,
                          decay_compensation_check, decay_scan,
                          monte_carlo_phase_noise, run_scan, solve_phases)
from .phases import (CompositeSequence, cap_numerators, cap_phases,
                     resonant_numerators, resonant_phases)
from .propalg import (CayleyKlein, CKAngles, compose_sequence, extract_ck,
                      from_angles, lift_to_three, reverse, to_angles)
from .pulses import (GAUSSIAN_CUTOFF, PulsePair, PulseShape, PulseTrain,
                     ShapeKind, build_train, default_delay, envelope, make_pair,
                     train_envelopes, train_window)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ATOL", "DEFAULT_RTOL", "GAUSSIAN_CUTOFF",
    "CayleyKlein", "CKAngles", "CompositeSequence", "FidelityResult",
    "IntegrationError", "PulsePair", "PulseShape", "PulseTrain", "ScanSpec",
    "ShapeKind", "SolveResult", "SweepAxis", "SystemParams",
    "build_train", "cap_numerators", "cap_phases", "compose_sequence",
    "decay_compensation_check", "decay_scan", "default_delay",
    "effective_two_state", "envelope", "extract_ck", "from_angles",
    "hamiltonian", "lift_to_three", "make_pair", "monte_carlo_phase_noise",
    "propagate", "propagate_effective", "propagate_two_state",
    "resonant_numerators", "resonant_phases", "resonant_two_state_hamiltonian",
    "reverse", "run_scan", "solve_phases", "to_angles", "train_envelopes",
    "train_window",
]
