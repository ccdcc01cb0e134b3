"""Adaptive RK45 propagators: the reference the Magnus integrator is
checked against.

These integrate the matrix Schrodinger equation one right-hand side at a
time with scipy's embedded 5(4) Runge-Kutta scheme, a different method
from the package's, on Hamiltonians built here from the envelopes. They
are slow (thousands of Python-level evaluations per propagator) and serve
the tests only.
"""

import numpy as np
from scipy.integrate import solve_ivp

from cstirap.pulses import PulseTrain, train_envelopes, train_window


def _solve(rhs, dim, t_span, train, rtol, atol):
    """Integrate over t_span, by default the train's window."""
    # Cap the step at half a pulse width so the error estimator can never
    # step across an entire envelope unsampled.
    width = min(min(p.pump.width, p.stokes.width) for p in train.pairs)
    sol = solve_ivp(lambda t, y: (-1j * (rhs(t) @ y.reshape(dim, dim))).ravel(),
                    train_window(train) if t_span is None else t_span,
                    np.eye(dim, dtype=complex).ravel(), method="RK45",
                    rtol=rtol, atol=atol, max_step=0.5 * width)
    if sol.status != 0:
        raise RuntimeError(sol.message)
    return sol.y[:, -1].reshape(dim, dim)


def propagate(pulses, sys, t_span=None, rtol=1e-11, atol=1e-13):
    """U(t_f, t_i) of the three-state problem for a pair or a train."""
    train = pulses if isinstance(pulses, PulseTrain) else PulseTrain((pulses,))

    def matrix(t):
        wp, ws = train_envelopes(train, t)
        return 0.5 * np.array([
            [0.0, wp, 0.0],
            [np.conj(wp), 2.0 * sys.delta - 1j * sys.gamma, ws],
            [0.0, np.conj(ws), 0.0],
        ], dtype=complex)

    return _solve(matrix, 3, t_span, train, rtol, atol)


def propagate_two_state(pair, t_span=None, rtol=1e-11, atol=1e-13):
    """SU(2) propagator under half the resonant two-state couplings
    (1/4)[[-Ws, Wp], [Wp, Ws]], for a pair with real envelopes."""
    train = PulseTrain((pair,))

    def matrix(t):
        wp, ws = train_envelopes(train, t)
        return 0.25 * np.array([[-ws.real, wp.real], [wp.real, ws.real]])

    return _solve(matrix, 2, t_span, train, rtol, atol)


def propagate_effective(pair, delta, t_span=None, rtol=1e-11, atol=1e-13):
    """2x2 propagator of the adiabatically eliminated (c1, c3) problem."""
    train = PulseTrain((pair,))

    def matrix(t):
        wp, ws = train_envelopes(train, t)
        return np.array([[-abs(wp) ** 2, -wp * ws],
                         [-np.conj(wp * ws), -abs(ws) ** 2]], dtype=complex) / (4.0 * delta)

    return _solve(matrix, 2, t_span, train, rtol, atol)
