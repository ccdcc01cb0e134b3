import math

import numpy as np
import pytest

from cstirap.dynamics import SystemParams, propagate
from cstirap.experiments import ScanSpec, solve_phases
from cstirap.phases import (CompositeSequence, cap_numerators, cap_phases,
                            resonant_numerators, resonant_phases)
from cstirap.propalg import compose_sequence
from cstirap.pulses import ShapeKind, make_pair

# Published tables, numerators of pi/N (resonant) and 2*pi/N (far off
# resonance), pairs ordered (alpha_k, beta_k).
RESONANT_TABLE = {
    3: ((0, 3, 1), (1, 3, 0)),
    5: ((0, 5, 3, 8, 4), (4, 8, 3, 5, 0)),
    7: ((0, 7, 5, 12, 8, 1, 9), (9, 1, 8, 12, 5, 7, 0)),
    9: ((0, 9, 7, 16, 12, 3, 15, 6, 16), (16, 6, 15, 3, 12, 16, 7, 9, 0)),
}
CAP_TABLE = {
    3: (0, 1, 0),
    5: (0, 2, 1, 2, 0),
    7: (0, 3, 2, 4, 2, 3, 0),
    9: (0, 4, 3, 6, 4, 6, 3, 4, 0),
}


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_resonant_table(n):
    assert resonant_numerators(n) == RESONANT_TABLE[n]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_cap_table(n):
    nums = cap_numerators(n)
    assert all(x % 2 == 0 for x in nums)
    assert tuple(x // 2 for x in nums) == CAP_TABLE[n]


def test_resonant_anagram_symmetry():
    for n in (3, 5, 7, 9, 11):
        na, nb = resonant_numerators(n)
        assert nb == tuple(reversed(na))


def test_phase_objects():
    seq = resonant_phases(3)
    assert seq.alternate_ordering is True
    assert seq.pump_phases == (0.0, 3 * math.pi / 3, 1 * math.pi / 3)
    assert seq.phase_pairs()[1] == (math.pi, math.pi)
    cap = cap_phases(5)
    assert cap.alternate_ordering is False
    assert cap.stokes_phases == (0.0,) * 5
    assert cap.pump_phases[1] == pytest.approx(4 * math.pi / 5)


def test_trivial_single_pair():
    seq = resonant_phases(1)
    assert seq.n_pairs == 1
    assert seq.phase_pairs() == ((0.0, 0.0),)
    assert cap_phases(1).pump_phases == (0.0,)


def test_sequence_validation():
    with pytest.raises(ValueError):
        CompositeSequence(2, (0.0, 0.0), (0.0, 0.0), True)
    with pytest.raises(ValueError):
        CompositeSequence(3, (0.0,), (0.0, 0.0, 0.0), True)
    with pytest.raises(ValueError):
        resonant_numerators(4)


@pytest.mark.parametrize("n", [3.0, True, np.float64(3.0), np.bool_(True)],
                         ids=["float", "bool", "numpy-float", "numpy-bool"])
def test_sequence_count_must_be_an_integer(n):
    # A float or a bool count once passed and failed later, inside numpy.
    with pytest.raises(ValueError, match="odd and positive"):
        CompositeSequence(n, (0.0,) * 3, (0.0,) * 3, True)
    assert CompositeSequence(np.int64(3), (0.0,) * 3, (0.0,) * 3, True).n_pairs == 3


@pytest.mark.parametrize("build", [resonant_phases, cap_phases, resonant_numerators,
                                   cap_numerators])
@pytest.mark.parametrize("n", [True, 3.0])
def test_analytic_phases_need_an_integer_count(build, n):
    # resonant_phases(True) once built a sequence with n_pairs=True.
    with pytest.raises(ValueError, match="positive odd integer"):
        build(n)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
def test_sequence_rejects_non_finite_phases(bad):
    # Once accepted, such a phase failed the composition later with a
    # message that blamed the gap or the phase noise.
    with pytest.raises(ValueError, match="phases must be finite"):
        CompositeSequence(3, (0.0, bad, 0.0), (0.0, 0.0, 0.0), True)
    with pytest.raises(ValueError, match="phases must be finite"):
        CompositeSequence(3, (0.0, 0.0, 0.0), (bad, 0.0, 0.0), True)


def _infidelity(pair, sys, seq):
    u = propagate(pair, sys, rtol=1e-9, atol=1e-11)
    m = compose_sequence([u] * seq.n_pairs, seq.phase_pairs(), seq.alternate_ordering)
    return 1.0 - abs(m[2, 0]) ** 2


def _spec(omega0, seed, system=SystemParams(), **tolerance):
    return ScanSpec((), ShapeKind.SINE_SQUARED, omega0, system=system, sequence=seed,
                    **tolerance)


def test_solver_guards():
    with pytest.raises(ValueError):
        solve_phases(_spec(20.0, resonant_phases(3), SystemParams(gamma=0.1)))


@pytest.mark.parametrize("options,problem", [
    (dict(budget=2.5), "budget"), (dict(budget=True), "budget"), (dict(budget=-1), "budget"),
    (dict(budget=0), "budget"), (dict(xatol=-1.0), "xatol"), (dict(xatol=float("nan")), "xatol"),
    (dict(xatol=0.0), "xatol"), (dict(simplex_step=float("nan")), "simplex_step"),
    (dict(simplex_step=float("inf")), "simplex_step"), (dict(simplex_step=-0.01), "simplex_step"),
])
def test_solver_options_are_checked(options, problem):
    # The checks the CLI makes on its solver section: each bad value once
    # ran 1 to 789 iterations instead of failing.
    with pytest.raises(ValueError, match=problem):
        solve_phases(_spec(20.0, resonant_phases(3)), **options)


def test_solver_trivial_for_single_pair():
    res = solve_phases(_spec(20.0, resonant_phases(1)))
    assert res.converged
    assert res.infidelity == res.seed_infidelity


def test_solver_never_worse_than_seed_and_pins_first_pair():
    # At this drive the analytic phases leave a small residual the simplex
    # search can still shave; the first pair's phases are gauge and stay put.
    pair = make_pair(ShapeKind.SINE_SQUARED, 20.0)
    seed = resonant_phases(3)
    res = solve_phases(_spec(20.0, seed, rtol=1e-9, atol=1e-11), budget=600)
    assert res.infidelity <= res.seed_infidelity
    assert res.sequence.pump_phases[0] == seed.pump_phases[0]
    assert res.sequence.stokes_phases[0] == seed.stokes_phases[0]
    assert res.seed_infidelity == pytest.approx(
        _infidelity(pair, SystemParams(), seed), abs=1e-9)


def test_solver_small_correction_inside_plateau():
    # Where the analytic phases are already excellent the optimum is a
    # small correction, not a different solution branch.
    seed = resonant_phases(3)
    res = solve_phases(_spec(23.0, seed, rtol=1e-9, atol=1e-11), budget=600)
    assert res.converged
    assert res.infidelity <= res.seed_infidelity < 1e-6
    moved = np.abs(np.array(res.sequence.pump_phases + res.sequence.stokes_phases)
                   - np.array(seed.pump_phases + seed.stokes_phases))
    assert np.max(moved) < 1e-3


def test_solver_beats_single_pair_off_resonance():
    # Off resonance with the far-off-resonant seed: the solved sequence must
    # do at least as well as the seed and far better than one pair.
    pair = make_pair(ShapeKind.SINE_SQUARED, 60.0)
    sys = SystemParams(delta=100.0)
    seed = cap_phases(5)
    res = solve_phases(_spec(60.0, seed, sys, rtol=1e-8, atol=1e-10), budget=400)
    single = _infidelity(pair, sys, resonant_phases(1))
    assert res.infidelity <= res.seed_infidelity
    assert res.seed_infidelity < 1e-4 < single
