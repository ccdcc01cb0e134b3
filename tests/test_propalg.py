import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstirap.dynamics import SystemParams, propagate
from cstirap.propalg import (CayleyKlein, CKAngles, compose_sequence, extract_ck,
                             from_angles, lift_to_three, reverse, to_angles)
from cstirap.pulses import ShapeKind, make_pair

_R3 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


def _random_su2(rng):
    # Haar-ish draw: normalize a random complex pair.
    v = rng.normal(size=4)
    n = math.hypot(math.hypot(v[0], v[1]), math.hypot(v[2], v[3]))
    return CayleyKlein(complex(v[0], v[1]) / n, complex(v[2], v[3]) / n)


def _matrix(ck):
    return np.array([[ck.a, ck.b], [-np.conj(ck.b), np.conj(ck.a)]])


def test_cayley_klein_norm_enforced():
    with pytest.raises(ValueError):
        CayleyKlein(1.0, 0.1)
    CayleyKlein(math.sqrt(0.5), 1j * math.sqrt(0.5))


def test_lift_pinned_points():
    np.testing.assert_allclose(lift_to_three(CayleyKlein(1.0, 0.0)), np.eye(3),
                               atol=1e-15)
    np.testing.assert_allclose(lift_to_three(CayleyKlein(0.0, 1.0)),
                               np.diag([-1.0, 1.0, -1.0]), atol=1e-15)


def test_lift_is_orthogonal_like():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = lift_to_three(_random_su2(rng))
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12


def test_lift_homomorphism_on_random_pairs():
    # The quadratic lift must respect products for arbitrary SU(2) inputs,
    # not just the mirror-symmetric class realized by STIRAP pairs.
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y = _random_su2(rng), _random_su2(rng)
        prod = extract_ck(_matrix(x) @ _matrix(y))
        dev = np.max(np.abs(lift_to_three(x) @ lift_to_three(y)
                            - lift_to_three(prod)))
        assert dev < 1e-12


def test_extract_ck_roundtrip_and_rejection():
    ck = CayleyKlein(0.6, 0.8j)
    got = extract_ck(_matrix(ck))
    assert got.a == pytest.approx(0.6)
    assert got.b == pytest.approx(0.8j)
    with pytest.raises(ValueError):
        extract_ck(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        extract_ck(np.eye(3))


@pytest.mark.parametrize("build", [
    lambda: CayleyKlein(math.nan, 0),
    lambda: extract_ck(np.array([[0.6, 0.8], [-0.8, math.nan]])),
    lambda: extract_ck(np.array([[0.6, 0.8], [math.nan, 0.6]])),
    lambda: extract_ck(np.full((2, 2), math.nan)),
    lambda: from_angles(CKAngles(math.nan, 0.0)),
], ids=["cayley-klein", "extract-ck-nan-at-1-1", "extract-ck-nan-at-1-0",
        "extract-ck-all-nan", "from-angles"])
def test_nan_fails_the_su2_checks(build):
    # A NaN deviation compares False with any tolerance; it must not pass
    # for one within it, nor lose to a finite deviation.
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build,message", [
    (lambda: CayleyKlein(1e308, 0), "Cayley-Klein parameters"),
    (lambda: CayleyKlein(1e308j, 1e308), "Cayley-Klein parameters"),
    (lambda: extract_ck(np.array([[1e308, 0.0], [0.0, 1.0]])), "not SU\\(2\\)"),
    (lambda: extract_ck(np.array([[0.6, -1e308], [0.8, 0.6]])), "not SU\\(2\\)"),
    (lambda: extract_ck(np.array([[0.6, 0.8], [-0.8, 1e308j]])), "not SU\\(2\\)"),
], ids=["cayley-klein-1e308", "cayley-klein-1e308-both", "extract-ck-1e308-at-0-0",
        "extract-ck-minus-1e308-at-0-1", "extract-ck-1e308j-at-1-1"])
def test_overflow_fails_the_su2_checks(build, message):
    # An entry whose square overflows fails the checks with their own
    # ValueError: no OverflowError, and no numpy warning (pyproject.toml
    # turns warnings into errors).
    with pytest.raises(ValueError, match=message):
        build()


def test_angle_roundtrip_on_mirror_class():
    rng = np.random.default_rng(11)
    for _ in range(200):
        theta = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        ck = from_angles(CKAngles(theta, phi))
        back = from_angles(to_angles(ck))
        assert abs(back.a - ck.a) < 1e-12
        assert abs(back.b - ck.b) < 1e-12


def test_to_angles_principal_branch():
    angles = to_angles(from_angles(CKAngles(0.4, -0.9)))
    assert angles.theta == pytest.approx(0.4)
    assert angles.phi == pytest.approx(-0.9)
    assert -math.pi / 2 <= to_angles(from_angles(CKAngles(2.8, 0.3))).theta <= math.pi / 2


def test_to_angles_requires_mirror_symmetry():
    with pytest.raises(ValueError):
        to_angles(CayleyKlein(1j * math.sqrt(0.5), math.sqrt(0.5)))


def test_reverse_is_exchange_conjugation():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(reverse(u), _R3 @ u @ _R3, atol=1e-15)
    np.testing.assert_allclose(reverse(reverse(u)), u, atol=1e-15)


def _imprint(u, alpha, beta, alternate=False):
    """Phi U Phi* with Phi = diag(e^{i alpha}, 1, e^{-i beta}): the
    composition of one pair."""
    return compose_sequence([u], [(alpha, beta)], alternate)


def test_imprint_matches_explicit_conjugation():
    rng = np.random.default_rng(6)
    u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    phi = np.diag([np.exp(0.7j), 1.0, np.exp(1.3j)])
    np.testing.assert_allclose(_imprint(u, 0.7, -1.3),
                               phi @ u @ phi.conj().T, atol=1e-13)
    np.testing.assert_allclose(_imprint(u, 0.0, 0.0), u, atol=1e-15)


def test_compose_sequence_validation():
    u = np.eye(3)
    with pytest.raises(ValueError):
        compose_sequence([u, u], [(0, 0), (0, 0)], False)
    with pytest.raises(ValueError):
        compose_sequence([u, u, u], [(0, 0)], False)


def test_compose_order_rightmost_first():
    rng = np.random.default_rng(8)
    mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
    got = compose_sequence(mats, [(0.0, 0.0)] * 3, alternate=False)
    np.testing.assert_allclose(got, mats[2] @ mats[1] @ mats[0], atol=1e-13)


def test_compose_alternation_reverses_even_pairs():
    rng = np.random.default_rng(9)
    u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = compose_sequence([u, u, u], [(0.0, 0.0)] * 3, alternate=True)
    np.testing.assert_allclose(got, u @ (_R3 @ u @ _R3) @ u, atol=1e-13)


def test_imprint_equals_integrating_phased_pair():
    # Conjugation by diag(e^{i a}, 1, e^{-i b}) is exactly what the phase
    # factors on the complex envelopes do to the propagator.
    sys = SystemParams(delta=0.8, gamma=0.25)
    plain = make_pair(ShapeKind.SINE_SQUARED, 18.0)
    phased = make_pair(ShapeKind.SINE_SQUARED, 18.0, pump_phase=1.1,
                       stokes_phase=-0.4)
    u0 = propagate(plain, sys)
    u1 = propagate(phased, sys)
    assert np.max(np.abs(_imprint(u0, 1.1, -0.4) - u1)) < 1e-8


def test_reversal_equals_integrating_swapped_pair():
    sys = SystemParams(delta=-1.2, gamma=0.4)
    fwd = make_pair(ShapeKind.SINE_SQUARED, 12.0)
    bwd = make_pair(ShapeKind.SINE_SQUARED, 12.0, reversed=True)
    np.testing.assert_allclose(reverse(propagate(fwd, sys)), propagate(bwd, sys),
                               atol=1e-8)


# Property tests of the algebra on random unitary matrices, with any
# number of leading batch axes.

seeds = st.integers(0, 2 ** 32 - 1)
batch_shapes = st.lists(st.integers(1, 3), max_size=2).map(tuple)
angles = st.floats(-10.0, 10.0)


def _unitaries(seed, shape=()):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=shape + (3, 3)) + 1j * rng.normal(size=shape + (3, 3))
    return np.linalg.qr(z)[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, batch_shapes)
def test_reverse_is_an_involution_and_exchange_conjugation(seed, shape):
    u = _unitaries(seed, shape)
    assert np.array_equal(reverse(reverse(u)), u)
    np.testing.assert_allclose(reverse(u), _R3 @ u @ _R3, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, angles, angles, angles, angles)
def test_imprints_compose_additively(seed, a1, b1, a2, b2):
    u = _unitaries(seed)
    twice = _imprint(_imprint(u, a1, b1), a2, b2)
    np.testing.assert_allclose(twice, _imprint(u, a1 + a2, b1 + b2),
                               rtol=0, atol=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, angles, angles)
def test_imprint_ignores_alternation(seed, alpha, beta):
    # Alternation reverses only even pairs, and one pair has none.
    u = _unitaries(seed)
    assert np.array_equal(_imprint(u, alpha, beta, alternate=True),
                          _imprint(u, alpha, beta, alternate=False))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, st.sampled_from([1, 3, 5, 9]), st.integers(1, 6), st.booleans(),
       st.booleans())
def test_batched_compose_equals_per_row_calls(seed, n, samples, alternate, gap_folded):
    rng = np.random.default_rng(seed)
    u = _unitaries(seed)
    props = [u] * n
    if gap_folded:
        # Free evolution between pairs folded into all but the last factor.
        g = np.diag([1.0, np.exp(-1j * rng.uniform(0, 3)) * rng.uniform(0.5, 1), 1.0])
        props = [g @ u] * (n - 1) + [u]
    phase_sets = rng.uniform(-np.pi, np.pi, (samples, n, 2))
    got = compose_sequence(props, phase_sets, alternate)
    assert got.shape == (samples, 3, 3)
    for row, phases in zip(got, phase_sets):
        want = compose_sequence(props, [tuple(p) for p in phases], alternate)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-15)
    stacked = compose_sequence(props, phase_sets.reshape(1, samples, n, 2), alternate)
    np.testing.assert_array_equal(stacked[0], got)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, st.sampled_from([1, 3, 5]), st.integers(1, 4), st.booleans(), st.booleans(),
       st.booleans())
def test_stacked_propagators_compose_each_point_alone(seed, n, points, alternate, gap_folded,
                                                      on_state):
    # A stack of points' propagators, (P, 1, 3, 3), against one phase set
    # (1, N, 2) gives each point's composite bit for bit as its own call
    # does, also with a per-point decay factor folded into all but the
    # last pair.
    rng = np.random.default_rng(seed)
    u = _unitaries(seed, (points,))
    first = u.copy()
    if gap_folded:
        first[:, 1] *= (np.exp(-rng.uniform(0, 3, points) - 1j * rng.uniform(0, 3, points))
                        [:, None])
    props = [first] * (n - 1) + [u]
    phase_set = rng.uniform(-np.pi, np.pi, (1, n, 2))
    initial = np.array([1.0, 0.0, 0.0]) if on_state else None
    got = compose_sequence([p[:, None] for p in props], phase_set, alternate, initial)
    assert got.shape == (points, 1) + ((3,) if on_state else (3, 3))
    for k in range(points):
        want = compose_sequence([p[k] for p in props], phase_set, alternate, initial)
        assert np.array_equal(got[k], want)


def test_compose_rejects_unbroadcastable_stacks():
    with pytest.raises(ValueError, match="cannot be broadcast"):
        compose_sequence([np.zeros((2, 3, 3))] * 3, np.zeros((4, 3, 2)), True)


_NORM = r"Cayley-Klein parameters must satisfy"


@pytest.mark.parametrize("build,match", [
    (lambda: compose_sequence([np.eye(3)], [[10 ** 400, 0.0]], False), "phases must be within"),
    (lambda: compose_sequence([np.eye(3)] * 3, [[0.0, 0.0], [0.0, -10 ** 400], [0.0, 0.0]], True),
     "phases must be within"),
    (lambda: CayleyKlein(10 ** 400, 0), _NORM),
    (lambda: CayleyKlein(0.6, 10 ** 400), _NORM),
    (lambda: from_angles(CKAngles(10 ** 400, 0.0)), "angles must be finite"),
    (lambda: from_angles(CKAngles(0.0, -10 ** 400)), "angles must be finite"),
    (lambda: to_angles(CayleyKlein(10 ** 400, 0)), _NORM),
    (lambda: extract_ck(np.array([[10 ** 400, 0], [0, 1]], dtype=object)),
     "matrix entries must be within"),
], ids=["compose-alpha", "compose-beta", "cayley-klein-a", "cayley-klein-b", "from-angles-theta",
        "from-angles-phi", "to-angles", "extract-ck"])
def test_integer_beyond_float_range_raises_value_error(build, match):
    # An integer beyond float range fails with ValueError, not numpy's or
    # math's OverflowError.
    with pytest.raises(ValueError, match=match):
        build()


def test_non_finite_float_phase_still_gives_nan():
    got = compose_sequence([np.eye(3)] * 3, [[math.nan, 0.0], [0.0, 0.0], [math.inf, 0.0]], True)
    assert np.isnan(got).any()
    mixed = compose_sequence([np.eye(3)], np.array([[2 ** 70, math.nan]], dtype=object), False)
    assert np.isnan(mixed).any()


@pytest.mark.parametrize("phases", [
    np.zeros(3), np.zeros((3, 3)), np.zeros((5, 2)), np.zeros((2, 3)),
    np.zeros(()), np.zeros((4, 3, 3)), [(0.0, 0.0), (0.0,), (0.0, 0.0)],
])
def test_compose_rejects_wrong_phase_shape(phases):
    with pytest.raises(ValueError):
        compose_sequence([np.eye(3)] * 3, phases, alternate=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seeds, st.sampled_from([1, 3, 5, 9]), st.booleans(), st.booleans(),
       st.sampled_from([(), (4,), (1, 4)]))
def test_composed_state_is_a_column_of_the_composite(seed, n, alternate, gap_folded, lead):
    # Applied to e_j, the sequence gives column j of U^(N), also with
    # non-unitary factors: free evolution with decay folded into all but the
    # last pair.
    rng = np.random.default_rng(seed)
    u = _unitaries(seed)
    props = [u] * n
    if gap_folded:
        decay = np.exp(-rng.uniform(0, 3)) * np.exp(-1j * rng.uniform(0, 3))
        props = [np.diag([1.0, decay, 1.0]) @ u] * (n - 1) + [u]
    phase_sets = rng.uniform(-np.pi, np.pi, lead + (n, 2))
    full = compose_sequence(props, phase_sets, alternate)
    for j, state in enumerate(np.eye(3)):
        got = compose_sequence(props, phase_sets, alternate, initial=state)
        assert got.shape == lead + (3,)
        np.testing.assert_allclose(got, full[..., :, j], rtol=0, atol=1e-15)


@pytest.mark.parametrize("initial", [
    np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.zeros((1, 3)), np.eye(3), 1.0,
])
def test_compose_rejects_wrong_initial_shape(initial):
    with pytest.raises(ValueError, match="initial state"):
        compose_sequence([np.eye(3)] * 3, np.zeros((3, 2)), True, initial=initial)
