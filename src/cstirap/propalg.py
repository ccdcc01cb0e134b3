"""Propagator algebra for composite sequences.

The resonant three-state propagator is quadratic in the Cayley-Klein
parameters (a, b) of the equivalent two-state problem; this module holds
that lift, the backward-ordering reversal R U R, and the N-fold sequence
composition (at N = 1, the phase imprint Phi U Phi*), a recursion through
the phase ratios of neighbouring pairs, batched over stacks of phase sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10
SU2_TOL = 1e-8       # extract_ck: the largest deviation from SU(2) form let in
MIRROR_TOL = 1e-6    # to_angles: the largest |Im a + Im b| read as mirror-symmetric


@dataclass(frozen=True)
class CayleyKlein:
    """SU(2) parameters (a, b) with |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self):
        norm = math.hypot(*(x for z in (self.a, self.b) for x in (z.real, z.imag)))
        if not abs(norm * norm - 1.0) <= NORM_TOL:    # ** 2 may raise OverflowError
            raise ValueError("Cayley-Klein parameters must satisfy |a|^2+|b|^2 = 1")


@dataclass(frozen=True)
class CKAngles:
    """Angle form: a = cos(theta)cos(phi) + i sin(theta)/sqrt(2),
    b = cos(theta)sin(phi) - i sin(theta)/sqrt(2)."""

    theta: float
    phi: float


def lift_to_three(ck: CayleyKlein) -> np.ndarray:
    """The 3x3 STIRAP propagator built from the two-state parameters."""
    a, b = complex(ck.a), complex(ck.b)
    return np.array([
        [abs(a) ** 2 - abs(b) ** 2, -2j * (a * np.conj(b)).imag, 2 * (a * np.conj(b)).real],
        [2j * (a * b).imag, (a * a + b * b).real, -1j * (a * a - b * b).imag],
        [-2 * (a * b).real, -1j * (a * a + b * b).imag, (a * a - b * b).real],
    ], dtype=complex)


@np.errstate(over="ignore", invalid="ignore")
def extract_ck(u2: np.ndarray) -> CayleyKlein:
    """Read (a, b) off a 2x2 matrix of the form [[a, b], [-b*, a*]]."""
    u2 = np.asarray(u2, dtype=complex)
    if u2.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    a, b = u2[0, 0], u2[0, 1]
    # np.max, not max: a NaN deviation must not lose to a finite one.
    dev = np.max([abs(u2[1, 0] + np.conj(b)), abs(u2[1, 1] - np.conj(a)),
                  abs(abs(a) ** 2 + abs(b) ** 2 - 1.0)])
    if not dev <= SU2_TOL:
        raise ValueError(f"matrix is not SU(2) to tolerance (max deviation {dev:.3e})")
    # Integration noise up to SU2_TOL is allowed in; project back onto the
    # exact constraint surface so CayleyKlein's strict norm check holds.
    scale = 1.0 / np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return CayleyKlein(complex(a) * scale, complex(b) * scale)


def to_angles(ck: CayleyKlein) -> CKAngles:
    """Invert the angle parameterization.

    Only defined on the mirror-symmetric class Im a = -Im b. The principal
    arcsin branch (cos theta >= 0) together with phi = atan2(Re b, Re a)
    always satisfies the reconstruction identity.
    """
    if abs(ck.a.imag + ck.b.imag) > MIRROR_TOL:
        raise ValueError("angle form needs the mirror-symmetry property Im a = -Im b")
    theta = math.asin(min(1.0, max(-1.0, math.sqrt(2.0) * ck.a.imag)))
    phi = math.atan2(ck.b.real, ck.a.real)
    return CKAngles(theta, phi)


def from_angles(angles: CKAngles) -> CayleyKlein:
    """Rebuild (a, b) from (theta, phi)."""
    ct, st = math.cos(angles.theta), math.sin(angles.theta)
    return CayleyKlein(ct * math.cos(angles.phi) + 1j * st / math.sqrt(2.0),
                       ct * math.sin(angles.phi) - 1j * st / math.sqrt(2.0))


def reverse(u: np.ndarray) -> np.ndarray:
    """Propagator of the same pair with pump and Stokes exchanged: R U R,
    where R exchanges states 1 and 3, so both matrix indices flip."""
    return np.asarray(u, dtype=complex)[..., ::-1, ::-1]


def compose_sequence(propagators, phases, alternate: bool, initial=None) -> np.ndarray:
    """U^(N) for a sequence of N phased pairs; rightmost factor = first pair.

    `propagators` holds the N pair propagators and `phases` one
    (alpha, beta) per pair, shape (..., N, 2): any leading axes stack phase
    sets that share the propagators, and the result has shape (..., 3, 3),
    or (..., 3) for U^(N) applied to a state `initial` of shape (3,). With
    alternate=True every even pair (second, fourth, ...) enters as its
    reversed propagator R U R, the resonant protocol; with alternate=False
    all pairs enter forward, the far-off-resonant protocol. The states take
    one recursion v <- U_k D_k v, D_k = Phi_k* Phi_{k-1}, Phi_0 = Phi_{N+1} = 1.
    """
    props = [reverse(u) if alternate and k % 2 else u for k, u in enumerate(propagators)]
    n = len(props)
    if n < 1 or n % 2 == 0:
        raise ValueError("sequence length must be odd")
    phases = np.asarray(phases, dtype=float)
    if phases.shape[-2:] != (n, 2):
        raise ValueError("need one (alpha, beta) per pair")
    if initial is not None and np.shape(initial) != (3,):
        raise ValueError("the initial state must have shape (3,)")
    states = np.eye(3, dtype=complex) if initial is None else np.asarray(initial, dtype=complex)
    sets = phases.reshape(-1, n, 2)
    v = np.repeat(states.T.reshape(1, -1, 3), len(sets), axis=0)   # the states as rows
    # Phi_k's outer entries, one pair at a time; an overflowing angle gives NaN.
    prev, turn = np.ones((len(sets), 2), dtype=complex), np.array([1j, -1j])
    with np.errstate(over="ignore", invalid="ignore"):
        for k, u in enumerate(props):
            cur = np.exp(sets[:, k] * turn)
            v[..., ::2] *= (cur.conj() * prev)[:, None]
            v = (v.reshape(-1, 3) @ np.transpose(u)).reshape(v.shape)
            prev = cur
    v[..., ::2] *= prev[:, None]
    return v.swapaxes(1, 2).reshape(phases.shape[:-2] + states.shape)
