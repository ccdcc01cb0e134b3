"""Hamiltonians and Schrodinger-equation integration for the Lambda system.

State ordering is (c1, c2, c3) with the pump driving 1<->2 and the Stokes
driving 2<->3; both fields share the one-photon detuning Delta and state 2
loses population at rate gamma through the non-Hermitian diagonal term.

All propagators share one integrator: a fourth-order Magnus method on two
Gauss nodes per step (Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 151
(2009)) on blocks of steps held component-major, as (d, d, steps) arrays.
Every step exponential is one scaled Taylor series; at gamma = 0 the
propagator is then projected onto the nearest unitary matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .pulses import (PulsePair, PulseTrain, ShapeKind, pair_envelopes,
                     train_envelopes, train_window, window)

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

# Aliases for readability; both are plain complex ndarrays.
StateVector = np.ndarray    # shape (3,), amplitudes (c1, c2, c3)
Propagator3 = np.ndarray    # shape (3, 3), unitary when gamma = 0

# Time steps evaluated per batch. A constant, not a setting: it bounds
# memory, and it fixes the order in which the step exponentials are
# multiplied, so every output bit depends on the point alone.
_CHUNK = 512
# Step doubling gives up beyond this many steps per propagator.
_MAX_STEPS = 1 << 20
# Gauss-Legendre nodes on [0, 1] and the commutator coefficient of the
# fourth-order Magnus expansion.
_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 12.0
# Taylor exponential: scale until the 1-norm is at most _THETA; the
# truncation error is then below _THETA**(d+1)/(d+1)! ~ 2e-17.
_THETA = 0.5
_TAYLOR_DEGREE = 14


@dataclass(frozen=True)
class SystemParams:
    """One-photon detuning and middle-state decay rate, in units of 1/T."""

    delta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.delta) and np.isfinite(self.gamma)):
            raise ValueError("detuning and decay must be finite")
        if self.gamma < 0:
            raise ValueError("decay rate must be >= 0")


class IntegrationError(RuntimeError):
    """Stepping failed to converge; `time` holds the offending instant."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (t = {time:g})")
        self.time = time


def _pairs(pulses):
    return pulses.pairs if isinstance(pulses, PulseTrain) else (pulses,)


def _fields(pulses, t):
    if isinstance(pulses, PulseTrain):
        return train_envelopes(pulses, t)
    return pair_envelopes(pulses, t)


def _span(pulses):
    if isinstance(pulses, PulseTrain):
        return train_window(pulses)
    return window(pulses)


def _matrix(entries, dim: int) -> np.ndarray:
    """A (..., dim, dim) stack from {(row, col): entry}; the other entries
    are zero."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in entries.values()))
    m = np.zeros(shape + (dim, dim), dtype=np.result_type(*entries.values()))
    for (i, j), v in entries.items():
        m[..., i, j] = v
    return m


def hamiltonian(pulses, sys: SystemParams, t) -> np.ndarray:
    """The rotating-wave Hamiltonian at time(s) t (two-photon resonance).

    A scalar t gives one 3x3 matrix, an array t a (*t.shape, 3, 3) stack.
    """
    wp, ws = _fields(pulses, t)
    wp, ws = 0.5 * wp, 0.5 * ws
    return _matrix({(0, 1): wp, (1, 0): np.conj(wp),
                    (1, 1): sys.delta - 0.5j * sys.gamma,
                    (1, 2): ws, (2, 1): np.conj(ws)}, 3)


def _min_width(pulses):
    return min(min(p.pump.width, p.stokes.width) for p in _pairs(pulses))


def _breakpoints(pulses, t_span) -> np.ndarray:
    """The ends of t_span plus every sin^2 start and end strictly inside
    it: the envelopes' second derivatives jump there, so steps end there."""
    t_i, t_f = t_span
    points = {t_i, t_f}
    for pair in _pairs(pulses):
        for shape in (pair.pump, pair.stokes):
            if shape.kind is ShapeKind.SINE_SQUARED:
                points.update(x for x in (shape.center_or_start,
                                          shape.center_or_start + shape.width)
                              if t_i < x < t_f)
    return np.array(sorted(points))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a[..., i] @ b[..., i] of component-major stacks."""
    return (a[:, :, None] * b[None]).sum(axis=1)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(A) for a component-major stack A, by a scaled Taylor series."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    # NaN or inf in A: no squarings; the NaN result fails the error estimate.
    squarings = math.ceil(math.log2(norm / _THETA)) if _THETA < norm < math.inf else 0
    a = a / 2.0 ** squarings
    eye = np.eye(a.shape[0])[:, :, None]
    u = eye + a / _TAYLOR_DEGREE
    for j in range(_TAYLOR_DEGREE - 1, 0, -1):
        u = eye + _mul(a, u) / j
    for _ in range(squarings):
        u = _mul(u, u)
    return u


def _pairwise(u: np.ndarray) -> np.ndarray:
    """u[..., 2j+1] @ u[..., 2j]; an odd last matrix is carried over as is."""
    if u.shape[-1] % 2:
        u = np.concatenate([u, np.eye(u.shape[0])[:, :, None]], axis=-1)
    return _mul(u[..., 1::2], u[..., 0::2])


def _ordered_product(u: np.ndarray) -> np.ndarray:
    """u[..., -1] @ ... @ u[..., 0], multiplied pairwise in a fixed tree."""
    return u[..., 0] if u.shape[-1] == 1 else _ordered_product(_pairwise(u))


def _steps(breaks, steps, k):
    """Start and length of global step(s) k when segment s of `breaks` is
    cut into steps[s] equal steps."""
    ends = np.cumsum(steps)
    seg = np.searchsorted(ends, k, side="right")
    h = (breaks[seg + 1] - breaks[seg]) / steps[seg]
    return breaks[seg] + (k - ends[seg] + steps[seg]) * h, h


def _chunk_products(generator, breaks, steps) -> np.ndarray:
    """Products over consecutive blocks of _CHUNK Magnus steps, stacked as
    (d, d, blocks); with step counts doubled, block j spans blocks 2j, 2j+1."""
    total = int(steps.sum())
    out = []
    for first in range(0, total, _CHUNK):
        start, h = _steps(breaks, steps, np.arange(first, min(first + _CHUNK, total)))
        # H at both nodes as contiguous component-major (d, d, m) stacks.
        h1, h2 = np.moveaxis(generator(start + _NODES[:, None] * h), 1, -1).copy()
        # Omega = -i h/2 (H1 + H2) - (sqrt3/12) h^2 [H2, H1]
        omega = -0.5j * h * (h1 + h2) - _COMMUTATOR * h * h * (_mul(h2, h1) - _mul(h1, h2))
        out.append(_ordered_product(_expm(omega)))
    return np.stack(out, axis=-1)


def _integrate(generator, pulses, t_span, hermitian, rtol, atol) -> np.ndarray:
    """U(t_f, t_i) of i dU/dt = H(t) U, where generator(t) stacks H(t) and
    t_span defaults to the support window of `pulses`.

    Passes at n and 2n steps per segment give the Richardson estimate
    max|U_2n - U_n| / 15 of the fourth-order error. Until it is within
    atol + rtol, the step counts jump by the doublings that the 16-fold
    drop per doubling predicts. The point fails at once when a jump would
    pass _MAX_STEPS, or when an estimate at round-off level is not at
    least 4x below the one before it: stalled there, the estimate would
    otherwise creep up the ladder one doubling at a time.
    """
    t_i, t_f = _span(pulses) if t_span is None else t_span
    if not t_i < t_f:
        raise ValueError("need t_i < t_f")
    breaks = _breakpoints(pulses, (float(t_i), float(t_f)))
    # Start from steps of at most half a pulse width, so that no envelope
    # is stepped over unsampled. The count is checked as a float: cast
    # first, a window of 1e19 widths would wrap around int64.
    steps = np.ceil(np.diff(breaks) / (0.5 * _min_width(pulses)))
    if not 2 * steps.sum() <= _MAX_STEPS:
        raise IntegrationError(
            f"Magnus stepping needs over {_MAX_STEPS} steps for a window of "
            f"{t_f - t_i:g} with pulses {_min_width(pulses):g} wide", float(t_i))
    steps = steps.astype(np.int64)
    tol = atol + rtol
    last = math.inf
    coarse = _chunk_products(generator, breaks, steps)
    while True:
        fine = _chunk_products(generator, breaks, 2 * steps)
        u = _ordered_product(fine)
        err = float(np.max(np.abs(u - _ordered_product(coarse)))) / 15.0
        if err <= tol:
            if hermitian:
                # Each step is unitary to round-off, but the defects add
                # up over thousands of steps. The polar factor removes
                # them and moves u far less than the tolerance.
                w, _, vh = np.linalg.svd(u)
                u = w @ vh
            return u
        # At most 64 doublings, which overshoot _MAX_STEPS anyway (err / tol
        # is inf for a subnormal tol; err may be inf or NaN). The check is
        # made in Python ints: 2 ** 64 times an int64 overflows.
        jump = math.ceil(min(math.log(err / tol, 16.0), 64.0)) if np.isfinite(err) else 64
        # Only a stall at round-off, which grows with the step count, ends
        # the point: above it the drop can be slow before the 16x rate sets in.
        stalled = last / 4.0 < err < np.finfo(float).eps * 2 * int(steps.sum())
        if stalled or 2 ** (jump + 1) * int(steps.sum()) > _MAX_STEPS:
            # Report the start of the block that disagrees most with its halves.
            local = np.abs(_pairwise(fine) - coarse).max(axis=(0, 1))
            block = int(np.argmax(np.nan_to_num(local, nan=np.inf)))
            where = _steps(breaks, steps, block * _CHUNK)[0]
            raise IntegrationError(
                f"Magnus stepping missed rtol={rtol:g}, atol={atol:g} with "
                f"{2 * int(steps.sum())} steps (error estimate {err:.3g}"
                + (f", stalled after {last:.3g})" if stalled else ")"), float(where))
        last = err
        steps = steps * 2 ** jump
        coarse = fine if jump == 1 else _chunk_products(generator, breaks, steps)


def propagate(pulses, sys: SystemParams, t_span=None,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> Propagator3:
    """Propagator U(t_f, t_i) of i dU/dt = H(t) U for a pair or a train.

    t_span defaults to the pulse support window. Unitary to round-off when
    gamma = 0.
    """
    return _integrate(lambda t: hamiltonian(pulses, sys, t), pulses, t_span,
                      sys.gamma == 0, rtol, atol)


def propagate_state(initial, pulses, sys: SystemParams, t_span=None,
                    rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> StateVector:
    """Evolve an amplitude vector: c(t_f) = U(t_f, t_i) c(t_i)."""
    c = np.asarray(initial, dtype=complex)
    if c.shape != (3,):
        raise ValueError("state must have three amplitudes")
    return propagate(pulses, sys, t_span, rtol, atol) @ c


def _require_real_envelopes(pair: PulsePair):
    if pair.pump_phase % (2 * np.pi) != 0.0 or pair.stokes_phase % (2 * np.pi) != 0.0:
        raise ValueError("the two-state mapping assumes real envelopes (zero phases)")


def resonant_two_state_hamiltonian(pair: PulsePair, t) -> np.ndarray:
    """The real symmetric two-state matrix (1/2)[[-Ws, Wp], [Wp, Ws]].

    Valid on one-photon resonance with gamma = 0 and real envelopes. An
    array t gives a (*t.shape, 2, 2) stack.
    """
    _require_real_envelopes(pair)
    wp, ws = pair_envelopes(pair, t)
    wp, ws = 0.5 * wp.real, 0.5 * ws.real
    return _matrix({(0, 0): -ws, (0, 1): wp, (1, 0): wp, (1, 1): ws}, 2)


def propagate_two_state(pair: PulsePair, t_span=None,
                        rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """SU(2) propagator of the two-state problem equivalent to resonant STIRAP.

    The equivalent problem evolves under half the couplings of
    resonant_two_state_hamiltonian: the three-state propagator is quadratic
    in the Cayley-Klein parameters, which restores the full rotation angle.
    """
    _require_real_envelopes(pair)
    return _integrate(lambda t: 0.5 * resonant_two_state_hamiltonian(pair, t), pair,
                      t_span, True, rtol, atol)


def effective_two_state(pair: PulsePair, delta: float):
    """Far-off-resonance reduction: returns (W_eff(t), D_eff(t)).

    W_eff = -Wp*Ws/(2*Delta) couples states 1 and 3 directly and
    D_eff = (|Wp|^2 - |Ws|^2)/(2*Delta) is the effective detuning.
    """
    if delta == 0:
        raise ValueError("adiabatic elimination needs a nonzero detuning")
    peak = max(pair.pump.peak, pair.stokes.peak)
    if abs(delta) < 10.0 * peak:
        warnings.warn("adiabatic elimination is unreliable for |Delta| < 10*Omega0",
                      stacklevel=2)

    def w_eff(t):
        wp, ws = pair_envelopes(pair, t)
        return -wp * ws / (2.0 * delta)

    def d_eff(t):
        wp, ws = pair_envelopes(pair, t)
        return (abs(wp) ** 2 - abs(ws) ** 2) / (2.0 * delta)

    return w_eff, d_eff


def propagate_effective(pair: PulsePair, delta: float, t_span=None,
                        rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """2x2 propagator of the adiabatically eliminated (c1, c3) problem.

    Keeps the full light-shift diagonal -|Wp|^2/(4 Delta), -|Ws|^2/(4 Delta),
    whose difference is the effective detuning of effective_two_state.
    """
    if delta == 0:
        raise ValueError("adiabatic elimination needs a nonzero detuning")

    def generator(t):
        wp, ws = pair_envelopes(pair, t)
        c = -0.25 / delta
        return _matrix({(0, 0): c * abs(wp) ** 2, (0, 1): c * wp * ws,
                        (1, 0): c * np.conj(wp * ws), (1, 1): c * abs(ws) ** 2}, 2)

    return _integrate(generator, pair, t_span, True, rtol, atol)
