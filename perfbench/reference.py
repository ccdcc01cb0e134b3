"""Independent reference for the benchmark's output checks.

Nothing here imports cstirap. The Hamiltonian, the envelopes, the pair
geometry and the analytic phases are written again from the paper's
definitions (units of the pulse width T, hbar = 1):

    H(t) = 1/2 [[0, Wp, 0], [Wp*, 2 Delta - i gamma, Ws], [0, Ws*, 0]]

with sin^2 humps Omega0 sin^2(pi (t - t0) / T) on [t0, t0 + T] or Gaussians
Omega0 exp(-((t - tc) / T)^2). The whole N-pair train is integrated in one
pass (no algebraic composition) with a fixed-step fourth-order Magnus
integrator on two Gauss nodes, and the step count is doubled until two
successive results agree to `tol`. That is a different method, and a
tighter tolerance, than the package's adaptive RK45 pair propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAUSS_HALF_SPAN = 5.0           # a Gaussian pair occupies 5T + tau + 5T
_C1 = 0.5 - math.sqrt(3.0) / 6.0
_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CHUNK = 8192                   # steps exponentiated at once; bounds memory


@dataclass(frozen=True)
class Train:
    shape: str                  # "sin2" | "gaussian"
    omega0: float
    delay: float
    pump_phases: tuple
    stokes_phases: tuple
    alternate: bool             # every even pair runs pump-first
    delta: float = 0.0
    gamma: float = 0.0


def default_delay(shape: str) -> float:
    return 1.0 if shape == "gaussian" else 1.0 / math.pi


def resonant_phases(n: int):
    """alpha_k = pi floor(k/2) - (pi/N) floor((k-1)/2) (1 + floor((k-1)/2)),
    beta_k = alpha_{N+1-k}."""
    alpha = [math.pi * (k // 2) - (math.pi / n) * ((k - 1) // 2) * (1 + (k - 1) // 2)
             for k in range(1, n + 1)]
    return tuple(alpha), tuple(alpha[n - k] for k in range(1, n + 1))


def cap_phases(n: int):
    """alpha_k = (N + 1 - 2 floor((k+1)/2)) floor(k/2) pi/N, beta_k = 0."""
    alpha = [(n + 1 - 2 * ((k + 1) // 2)) * (k // 2) * math.pi / n for k in range(1, n + 1)]
    return tuple(alpha), (0.0,) * n


def make_train(source: str, n: int, shape: str, omega0: float, delay=None,
               delta: float = 0.0, gamma: float = 0.0) -> Train:
    if source == "single":
        pump, stokes, alternate = (0.0,), (0.0,), True
    elif source == "resonant":
        (pump, stokes), alternate = resonant_phases(n), True
    elif source == "cap":
        (pump, stokes), alternate = cap_phases(n), False
    else:
        raise ValueError(f"no reference for sequence source {source!r}")
    if delay is None:
        delay = default_delay(shape)
    return Train(shape, float(omega0), float(delay), pump, stokes, alternate,
                 float(delta), float(gamma))


def pair_length(train: Train) -> float:
    if train.shape == "gaussian":
        return 2.0 * GAUSS_HALF_SPAN + train.delay
    return 1.0 + train.delay


def _hump(train: Train, t, first: float):
    """Envelope whose (sin^2) start or (Gaussian) centre sits at `first`."""
    if train.shape == "gaussian":
        return train.omega0 * np.exp(-(t - first) ** 2)
    x = t - first
    return np.where((x >= 0.0) & (x <= 1.0), train.omega0 * np.sin(np.pi * x) ** 2, 0.0)


def fields(train: Train, t):
    """Complex pump and Stokes amplitudes of the whole train at times t."""
    slot = pair_length(train)
    lead = GAUSS_HALF_SPAN if train.shape == "gaussian" else 0.0
    wp = np.zeros_like(t, dtype=complex)
    ws = np.zeros_like(t, dtype=complex)
    for k, (a, b) in enumerate(zip(train.pump_phases, train.stokes_phases)):
        early = _hump(train, t, k * slot + lead)
        late = _hump(train, t, k * slot + lead + train.delay)
        # Forward pairs put the Stokes first (counterintuitive order).
        pump_first = train.alternate and k % 2 == 1
        wp += (early if pump_first else late) * np.exp(1j * a)
        ws += (late if pump_first else early) * np.exp(1j * b)
    return wp, ws


def hamiltonian(train: Train, t) -> np.ndarray:
    wp, ws = fields(train, t)
    h = np.zeros(t.shape + (3, 3), dtype=complex)
    h[..., 0, 1] = 0.5 * wp
    h[..., 1, 0] = 0.5 * np.conj(wp)
    h[..., 1, 2] = 0.5 * ws
    h[..., 2, 1] = 0.5 * np.conj(ws)
    h[..., 1, 1] = train.delta - 0.5j * train.gamma
    return h


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0], by pairwise halving."""
    while len(mats) > 1:
        if len(mats) % 2:
            mats = np.concatenate([mats, np.eye(3, dtype=complex)[None]])
        mats = mats[1::2] @ mats[0::2]
    return mats[0]


def _expm_small(omega: np.ndarray, order: int = 14) -> np.ndarray:
    """exp(omega) by a Horner-form Taylor series; every step keeps
    ||omega|| below 1 (see train_propagator), where order 14 is exact to
    double precision."""
    eye = np.eye(3, dtype=complex)
    out = eye + omega / order
    for k in range(order - 1, 0, -1):
        out = eye + (omega @ out) / k
    return out


def _magnus(train: Train, t0: float, t1: float, steps: int) -> np.ndarray:
    h = (t1 - t0) / steps
    total = np.eye(3, dtype=complex)
    for lo in range(0, steps, _CHUNK):
        starts = t0 + h * np.arange(lo, min(lo + _CHUNK, steps))
        h1 = hamiltonian(train, starts + _C1 * h)
        h2 = hamiltonian(train, starts + _C2 * h)
        # Omega = -i h (H1 + H2) / 2 + (sqrt(3) h^2 / 12) [H1, H2]
        omega = -0.5j * h * (h1 + h2) + (math.sqrt(3.0) * h * h / 12.0) * (h1 @ h2 - h2 @ h1)
        steps_u = _expm_small(omega)
        total = _ordered_product(steps_u) @ total
    return total


def train_propagator(train: Train, tol: float = 1e-9, max_steps: int = 1 << 20) -> np.ndarray:
    """U(t_f, t_i) of the whole train, converged to `tol` in the max norm."""
    length = len(train.pump_phases) * pair_length(train)
    rate = max(train.omega0, abs(train.delta), train.gamma, 1.0)
    steps = max(256, int(math.ceil(4.0 * rate * length)))
    coarse = _magnus(train, 0.0, length, steps)
    while steps <= max_steps:
        steps *= 2
        fine = _magnus(train, 0.0, length, steps)
        # Fourth order: the finer result is ~16x closer than the difference.
        if np.max(np.abs(fine - coarse)) / 15.0 < tol:
            return fine
        coarse = fine
    raise RuntimeError(f"reference did not converge within {max_steps} steps")


def populations(u: np.ndarray):
    """(P1, P2, P3) after starting in state 1."""
    return tuple(float(abs(u[i, 0]) ** 2) for i in range(3))


def monte_carlo(train: Train, sigma: float, samples: int, seed, tol: float = 1e-9):
    """Mean and standard error of the infidelity under Gaussian phase noise.

    Uses its own RNG stream and composes one reference pair propagator
    with the noisy phases for all samples at once.
    """
    n = len(train.pump_phases)
    single = Train(train.shape, train.omega0, train.delay, (0.0,), (0.0,), True,
                   train.delta, train.gamma)
    u = train_propagator(single, tol)
    flip = np.eye(3)[::-1]
    backward = flip @ u @ flip
    rng = np.random.default_rng(seed)
    alpha = np.array(train.pump_phases) + rng.normal(0.0, sigma, (samples, n))
    beta = np.array(train.stokes_phases) + rng.normal(0.0, sigma, (samples, n))
    total = np.broadcast_to(np.eye(3, dtype=complex), (samples, 3, 3))
    for k in range(n):
        base = backward if (train.alternate and k % 2 == 1) else u
        phi = np.stack([np.exp(1j * alpha[:, k]), np.ones(samples), np.exp(-1j * beta[:, k])], 1)
        total = (phi[:, :, None] * base[None] * np.conj(phi)[:, None, :]) @ total
    infid = 1.0 - np.abs(total[:, 2, 0]) ** 2
    return float(infid.mean()), float(infid.std(ddof=1) / math.sqrt(samples))
