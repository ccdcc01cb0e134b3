"""The paper's error law for resonant composite STIRAP: the sequence of N
phased pairs fails N times as badly, in the exponent.

Let f_N = 1 - P3 be the infidelity of the N-pair sequence of
phases.resonant_phases(N) composed from one pair propagator. Then
f_N = f_1^N to round-off for every pair of the mirror-symmetric class
lift_to_three(from_angles(CKAngles(theta, phi))), which the resonant pairs
of equal pump and Stokes shape belong to. The pinned tables stop at N = 9
and the plateau criterion looks at N <= 5; this checks the phase formula up
to the largest N the CLI admits.
"""

import math
import random

import numpy as np
import pytest

from cstirap import cli
from cstirap.dynamics import SystemParams, propagate
from cstirap.phases import resonant_phases
from cstirap.propalg import CKAngles, compose_sequence, from_angles, lift_to_three
from cstirap.pulses import ShapeKind, make_pair

TOL = 1e-12
_RNG = random.Random(1)
# Every odd N to 29, then a seeded sample of the larger ones and the cap.
ODD_N = sorted({*range(3, 30, 2), 99, *(_RNG.randrange(31, cli._MAX_PAIRS, 2) for _ in range(6)),
                cli._MAX_PAIRS})
ANGLES = [CKAngles(_RNG.uniform(-math.pi, math.pi), _RNG.uniform(-math.pi, math.pi))
          for _ in range(12)]


def _infidelity(u, n: int) -> float:
    seq = resonant_phases(n)
    state = compose_sequence([u] * n, seq.phase_pairs(), seq.alternate_ordering,
                             initial=[1.0, 0.0, 0.0])
    return 1.0 - abs(state[2]) ** 2


def _worst_deviation(u, ns) -> float:
    f1 = _infidelity(u, 1)
    return max(abs(_infidelity(u, n) - f1 ** n) for n in ns)


@pytest.mark.parametrize("angles", ANGLES, ids=lambda a: f"{a.theta:.2f},{a.phi:.2f}")
def test_error_law_holds_on_the_mirror_symmetric_class(angles):
    assert _worst_deviation(lift_to_three(from_angles(angles)), ODD_N) <= TOL


@pytest.mark.parametrize("kind,omega0s", [
    (ShapeKind.SINE_SQUARED, (5.0, 12.0, 25.0)),
    (ShapeKind.GAUSSIAN, (3.0, 8.0, 20.0)),
])
def test_error_law_holds_for_resonant_pairs(kind, omega0s):
    ns = [n for n in ODD_N if n <= 99]
    for omega0 in omega0s:
        u = propagate(make_pair(kind, omega0), SystemParams(), rtol=1e-8, atol=1e-10)
        assert _worst_deviation(u, ns) <= TOL, (kind, omega0)
