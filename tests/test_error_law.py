"""The paper's error law for composite STIRAP: the sequence of N phased
pairs fails N times as badly, in the exponent.

Let f_N = 1 - P3 be the infidelity of the N-pair sequence composed from one
pair propagator. Then f_N = f_1^N to round-off:
- with phases.resonant_phases(N), for every pair of the mirror-symmetric
  class lift_to_three(from_angles(CKAngles(theta, phi))), which the
  resonant pairs of equal pump and Stokes shape belong to;
- with phases.cap_phases(N), for every pair that couples states 1 and 3 by
  e^{i psi} [[a, b], [-b*, a]] with a real and puts any phase on state 2,
  the far-off-resonant pair once state 2 is adiabatically eliminated. Real
  sin^2 pairs at Delta = 100 and 300 keep the law to the 1e-6 that the
  elimination allows.
The pinned tables stop at N = 9 and the plateau criterion looks at N <= 5;
this checks the phase formulas up to the largest N the CLI admits.
"""

import math
import random

import numpy as np
import pytest

from cstirap import cli
from cstirap.dynamics import SystemParams, propagate
from cstirap.phases import cap_phases, resonant_phases
from cstirap.propalg import CKAngles, compose_sequence, from_angles, lift_to_three
from cstirap.pulses import ShapeKind, make_pair

TOL = 1e-12
_RNG = random.Random(1)
# Every odd N to 29, then a seeded sample of the larger ones and the cap.
ODD_N = sorted({*range(3, 30, 2), 99, *(_RNG.randrange(31, cli._MAX_PAIRS, 2) for _ in range(6)),
                cli._MAX_PAIRS})
ANGLES = [CKAngles(_RNG.uniform(-math.pi, math.pi), _RNG.uniform(-math.pi, math.pi))
          for _ in range(12)]
# Every odd N to 15, a seeded sample of the larger ones and the cap.
CAP_N = sorted({*range(3, 16, 2), *(_RNG.randrange(17, cli._MAX_PAIRS, 2) for _ in range(3)),
                cli._MAX_PAIRS})


def _cap_class(rng) -> np.ndarray:
    """e^{i psi} [[a, b], [-b*, a]] on states 1 and 3 with a real, and
    e^{i chi} on state 2."""
    a = rng.uniform(-1.0, 1.0)
    b = math.sqrt(1.0 - a * a) * np.exp(1j * rng.uniform(-math.pi, math.pi))
    u = np.zeros((3, 3), dtype=complex)
    u[np.ix_([0, 2], [0, 2])] = np.exp(1j * rng.uniform(-math.pi, math.pi)) * np.array(
        [[a, b], [-np.conj(b), a]])
    u[1, 1] = np.exp(1j * rng.uniform(-math.pi, math.pi))
    return u


CAP_CLASS = [_cap_class(_RNG) for _ in range(6)]


def _infidelity(u, n: int, phases=resonant_phases) -> float:
    seq = phases(n)
    state = compose_sequence([u] * n, seq.phase_pairs(), seq.alternate_ordering,
                             initial=[1.0, 0.0, 0.0])
    return 1.0 - abs(state[2]) ** 2


def _worst_deviation(u, ns, phases=resonant_phases) -> float:
    f1 = _infidelity(u, 1, phases)
    return max(abs(_infidelity(u, n, phases) - f1 ** n) for n in ns)


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


@pytest.mark.parametrize("u", CAP_CLASS, ids=lambda u: f"a={u[0, 0].real:.2f}")
def test_error_law_holds_on_the_cap_class(u):
    assert _worst_deviation(u, CAP_N, cap_phases) <= TOL


@pytest.mark.parametrize("delta", [100.0, 300.0])
def test_error_law_holds_for_far_detuned_pairs(delta):
    # The pair is in the cap class only to the accuracy of adiabatic
    # elimination: at Delta = 100 and Omega0 = 30 the law holds to 6.9e-7,
    # at rtol 1e-8 and 1e-10 alike.
    for omega0 in (10.0, 20.0, 30.0):
        u = propagate(make_pair(ShapeKind.SINE_SQUARED, omega0), SystemParams(delta),
                      rtol=1e-8, atol=1e-10)
        assert _worst_deviation(u, [3, 5, 7, 9], cap_phases) <= 1e-6, omega0
