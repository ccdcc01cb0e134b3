"""Hamiltonians and Schrodinger-equation integration for the Lambda system.

State ordering is (c1, c2, c3) with the pump driving 1<->2 and the Stokes
driving 2<->3; both fields share the one-photon detuning Delta and state 2
loses population at rate gamma through the non-Hermitian diagonal term.

All propagators share one integrator, a Magnus method (Blanes, Casas,
Oteo and Ros, Phys. Rep. 470, 151 (2009)) on blocks of steps held
component-major, as (d, d, steps) arrays, with the step kernel the caller
picks, all on three Gauss nodes: sixth order for a 3x3 generator
(_magnus6, behind a first-pass guard, with its fourth-order truncation
_magnus4 as the fallback), and in closed form for a 2x2 one given as its
Pauli parts (trace, x, y, z) (_magnus6_su2). Every input is read as a
train. On resonance, without decay, real envelopes take the paper's
route: the two-state propagator, lifted to three states. Off it, a
mirrored pair is integrated over half its window (see propagate).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .propalg import extract_ck, lift_to_three
from .pulses import PulseTrain, ShapeKind, train_envelopes, train_window

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
# The three Gauss-Legendre nodes on [0, 1] of the Magnus kernels, and
# alpha_1, alpha_2, alpha_3 per unit step as weights of the generator at
# those nodes (Blanes et al.).
_NODES6 = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
_ALPHA = np.array([[0.0, 1.0, 0.0],
                   [-math.sqrt(15.0) / 3.0, 0.0, math.sqrt(15.0) / 3.0],
                   [10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0]])


def _ps_coefficients(degree: int, powers: int) -> np.ndarray:
    """c[j, i] = 1/(j*powers + i)!: block j of the Taylor series of degree
    `degree` is sum_i c[j, i] A^i. Only the top block takes A^powers."""
    top = (degree - 1) // powers
    c = np.zeros((top + 1, powers + 1))
    for k in range(degree + 1):
        j = min(k // powers, top)
        c[j, k - j * powers] = 1.0 / math.factorial(k)
    return c


# Taylor exponential in Paterson-Stockmeyer form, by (theta, degree,
# powers): a block whose 1-norm is at most theta gets that degree, built
# from A^0..A^powers, so 4 to 7 products; a larger norm is scaled into the
# last row. The truncation error is below theta**(d+1)/(d+1)! <= 3e-17.
_TAYLOR = tuple((theta, powers, _ps_coefficients(degree, powers))
                for theta, degree, powers in ((0.05, 8, 3), (0.3, 12, 4), (1.0, 18, 5)))


@dataclass(frozen=True)
class SystemParams:
    """One-photon detuning and middle-state decay rate, in units of 1/T."""

    delta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        # Exact for integers, where np.isfinite fails on one beyond float range.
        if not (abs(self.delta) <= float_info.max and abs(self.gamma) <= float_info.max):
            raise ValueError("detuning and decay must be finite")
        if self.gamma < 0:
            raise ValueError("decay rate must be >= 0")


class IntegrationError(RuntimeError):
    """Stepping failed to converge; `time` holds the offending instant.

    `steps` is the fine step count of the last pass, or of the first pass
    when that already passes the step limit (then a float, which may be
    beyond any int); `estimate` is the last error estimate, or None when
    no pass was made.
    """

    def __init__(self, message: str, time: float, steps=None, estimate=None):
        super().__init__(f"{message} (t = {time:g})")
        self.time = time
        self.steps = steps
        self.estimate = estimate


def _train(pulses) -> PulseTrain:
    """A pair as the one-pair train it is; a train as it is."""
    return pulses if isinstance(pulses, PulseTrain) else PulseTrain((pulses,))


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
    wp, ws = (0.5 * w for w in train_envelopes(_train(pulses), t))
    return _matrix({(0, 1): wp, (1, 0): np.conj(wp),
                    (1, 1): sys.delta - 0.5j * sys.gamma,
                    (1, 2): ws, (2, 1): np.conj(ws)}, 3)


def _min_width(train: PulseTrain):
    return min(min(p.pump.width, p.stokes.width) for p in train.pairs)


def _peak(train: PulseTrain):
    return max(max(p.pump.peak, p.stokes.peak) for p in train.pairs)


def _breakpoints(pulses, t_span) -> np.ndarray:
    """The ends of t_span plus every sin^2 start and end strictly inside
    it: the envelopes' second derivatives jump there, so steps end there."""
    t_i, t_f = t_span
    points = {t_i, t_f}
    for pair in _train(pulses).pairs:
        for shape in (pair.pump, pair.stokes):
            if shape.kind is ShapeKind.SINE_SQUARED:
                points.update(x for x in (shape.center_or_start,
                                          shape.center_or_start + shape.width)
                              if t_i < x < t_f)
    return np.array(sorted(points))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a[..., i] @ b[..., i] of component-major stacks."""
    return np.einsum("ijm,jkm->ikm", a, b)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(A) for a component-major stack A: a Taylor polynomial of the
    degree that the 1-norm picks, in Paterson-Stockmeyer form, with scaling
    and squaring."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    theta, powers, c = next((row for row in _TAYLOR if norm <= row[0]), _TAYLOR[-1])
    # NaN or inf in A: no squarings; the NaN result fails the error estimate.
    squarings = math.ceil(math.log2(norm / theta)) if theta < norm < math.inf else 0
    p = np.empty((powers + 1,) + a.shape, dtype=np.result_type(a, 1j))
    p[0] = np.eye(a.shape[0])[:, :, None]
    p[1] = a * 2.0 ** -squarings
    for i in range(2, powers + 1):
        p[i] = _mul(p[1], p[i - 1])
    # Horner in A^powers over the blocks sum_i c[j, i] A^i, top block first.
    # c is real, so a real product with the powers acts on their real and
    # imaginary parts alike; one block at a time keeps the memory small.
    flat = p.reshape(powers + 1, -1).view(float)
    u = None
    for row in c[::-1]:
        block = (row @ flat).view(p.dtype).reshape(a.shape)
        u = block if u is None else _mul(u, p[powers]) + block
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


def _commutator(a, b):
    """[a, b] of component-major stacks."""
    return _mul(a, b) - _mul(b, a)


def _cross(a, b):
    """Cross products of (3, m) stacks of vectors."""
    outer = a[:, None] * b[None]
    return (outer - outer.transpose(1, 0, 2))[[1, 2, 0], [2, 0, 1]]


def _su2_exp(trace, v) -> np.ndarray:
    """exp(-i(trace + v.sigma)) = e^{-i trace} (cos|v| - i sinc|v| v.sigma)
    for real trace (m,) and v (3, m), as a (2, 2, m) stack."""
    # At |v| = 0 the smallest normal float stands in for |v|: sin x / x
    # and cos x are exactly 1 there, as they are at 0.
    norm = np.maximum(np.sqrt(np.einsum("im,im->m", v, v)), np.finfo(float).tiny)
    c, (x, y, z) = np.cos(norm), (np.sin(norm) / norm) * v
    u = np.array([[c - 1j * z, -y - 1j * x], [y - 1j * x, c + 1j * z]])
    return u * np.exp(-1j * trace)


def _alphas(generator, start, h):
    """alpha_1..3 of A = -iH for a 3x3 generator, from H on the nodes: (3, 3, 3, m)."""
    nodes = generator(start + _NODES6[:, None] * h)
    # One real product of _ALPHA with the node stack, then
    # component-major in C order: _mul is slower on strided views.
    flat = nodes.reshape(3, -1).view(float)
    alpha = np.moveaxis((_ALPHA @ flat).view(nodes.dtype).reshape(nodes.shape), 1, -1)
    return np.multiply(alpha, -1j * h, order="C")


def _magnus4(generator):
    """The fourth-order kernel of a 3x3 generator, the truncation of
    _magnus6 on the same nodes: exp(alpha_1 + alpha_3/12 - [alpha_1, alpha_2]/12)."""
    def step(start, h):
        a1, a2, a3 = _alphas(generator, start, h)
        return _expm(a1 + a3 / 12.0 - _commutator(a1, a2) / 12.0)

    return step, 4


def _magnus6(generator):
    """The sixth-order kernel of a 3x3 generator: (3, 3, m) step stacks
    exp(Omega) from the alpha_k of _alphas (Blanes et al.). With
    C1 = [alpha_1, alpha_2] and C2 = -(1/60) [alpha_1, 2 alpha_3 + C1], Omega is
    alpha_1 + alpha_3/12 + (1/240) [-20 alpha_1 - alpha_3 + C1, alpha_2 + C2].
    The series converges only for h ||H|| < pi (see _integrate's guard)."""
    def step(start, h):
        a1, a2, a3 = _alphas(generator, start, h)
        c1 = _commutator(a1, a2)
        c2 = (-1.0 / 60.0) * _commutator(a1, 2.0 * a3 + c1)
        return _expm(a1 + a3 / 12.0 + _commutator(c1 - 20.0 * a1 - a3, a2 + c2) / 240.0)

    return step, 6


def _magnus6_su2(parts):
    """The sixth-order kernel of H = trace + (x, y, z).sigma, a Hermitian
    2x2 generator given as parts(t), the real (4, *t.shape) stack of
    (trace, x, y, z), which is all it reads: (2, 2, m) step stacks in
    closed form from H on the three nodes.

    Each alpha_k = h sum_n _ALPHA[k, n] H(node n) of Blanes et al. is
    -i(t_k + a_k.sigma) with a real trace t_k and vector a_k, and
    [x.sigma, y.sigma] = 2i (x*y).sigma, so their commutators are cross
    products: with p = a1*a2, C1 is 2p and C2 is -(1/15) a1*(a3 + p), and
    the step is exp(-i(t + w.sigma)) with t = t1 + t3/12 and
    w = a1 + a3/12 + (1/120) (2p - 20 a1 - a3)*(a2 + C2).
    """
    def step(start, h):
        # (trace, x, y, z) of alpha_1..3: (4, 3, m).
        alpha = (_ALPHA @ parts(start + _NODES6[:, None] * h)) * h
        t, (a1, a2, a3) = alpha[0], alpha[1:].transpose(1, 0, 2)
        p = _cross(a1, a2)
        c2 = (-1.0 / 15.0) * _cross(a1, a3 + p)
        w = a1 + a3 / 12.0 + _cross(2.0 * p - 20.0 * a1 - a3, a2 + c2) / 120.0
        return _su2_exp(t[0] + t[2] / 12.0, w)

    return step, 6


def _chunk_products(kernel, breaks, steps) -> np.ndarray:
    """Products over consecutive blocks of _CHUNK steps of a kernel
    (step(start, h) -> (d, d, m) stack, order), as (d, d, blocks); with
    step counts doubled, block j spans blocks 2j, 2j+1. An overflow fails
    the point through its non-finite estimate, without numpy warnings."""
    step, _ = kernel
    total = int(steps.sum())
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, total, _CHUNK):
            start, h = _steps(breaks, steps, np.arange(first, min(first + _CHUNK, total)))
            out.append(_ordered_product(step(start, h)))
    return np.stack(out, axis=-1)


def _integrate(kernel, pulses, t_span, rtol, atol, margin=1.0, guard=None) -> np.ndarray:
    """U(t_f, t_i) of i dU/dt = H(t) U by the kernel of H, order p (see
    _chunk_products); t_span defaults to the support window of `pulses`.

    A guard (bound, fallback) holds an upper bound of ||H|| and a second
    kernel. Each segment's first pass then takes steps of h * bound <= 3,
    inside the Magnus convergence radius pi (Moan and Niesen, Found.
    Comput. Math. 8, 291 (2008)). Where the fine pass of those steps would
    pass _MAX_STEPS, the point is integrated as without the guard, by the
    fallback kernel instead.

    Passes at n and 2n steps per segment give the Richardson estimate
    max|U_2n - U_n| / (2^p - 1), but never less than the round-off
    eps sqrt(2n) of U_2n. Until it is within
    (atol + rtol) / margin, the step counts jump by the doublings that the
    2^p-fold drop per doubling predicts. The point fails at once when a
    jump would pass _MAX_STEPS, or when an estimate at round-off level is
    not at least 4x below the one before it: stalled there, the estimate
    would otherwise creep up the ladder one doubling at a time. An
    IntegrationError quotes rtol and atol as given.
    """
    train = _train(pulses)
    t_i, t_f = train_window(train) if t_span is None else t_span
    if not t_i < t_f:
        raise ValueError("need t_i < t_f")
    breaks = _breakpoints(train, (float(t_i), float(t_f)))
    # Start from steps of at most half a pulse width, so that no envelope
    # is stepped over unsampled. The count is checked as a float: cast
    # first, a window of 1e19 widths would wrap around int64.
    steps = np.ceil(np.diff(breaks) / (0.5 * _min_width(train)))
    if guard is not None:
        bound, fallback = guard
        guarded = np.maximum(steps, np.ceil(np.diff(breaks) * (bound / 3.0)))
        if 2 * guarded.sum() <= _MAX_STEPS:
            steps = guarded
        else:
            kernel = fallback
    order, last = kernel[1], math.inf
    if not 2 * steps.sum() <= _MAX_STEPS:
        raise IntegrationError(
            f"Magnus stepping of order {order} needs over {_MAX_STEPS} steps for a "
            f"window of {t_f - t_i:g} with pulses {_min_width(train):g} wide", float(t_i),
            steps=float(2 * steps.sum()))
    steps = steps.astype(np.int64)
    tol = (atol + rtol) / margin
    coarse = _chunk_products(kernel, breaks, steps)
    while True:
        fine = _chunk_products(kernel, breaks, 2 * steps)
        u = _ordered_product(fine)
        # The divisor shrinks the truncation error of U_2n, not its
        # round-off, which adds up like eps sqrt(steps). Without the floor,
        # a difference at round-off passes for 63 times less at p = 6.
        # (np.maximum keeps a NaN difference NaN.)
        err = float(np.maximum(np.max(np.abs(u - _ordered_product(coarse))) / (2.0 ** order - 1.0),
                               np.finfo(float).eps * math.sqrt(2 * int(steps.sum()))))
        if err <= tol:
            return u
        # At most 64 doublings, which overshoot _MAX_STEPS anyway (err / tol
        # is inf for a subnormal tol; err may be inf or NaN, and tol 0 when
        # the margin takes a subnormal one below the smallest float). The
        # check is made in Python ints: 2 ** 64 times an int64 overflows.
        ratio = err / tol if tol > 0 else math.inf
        jump = math.ceil(min(math.log(ratio, 2.0 ** order), 64.0)) if ratio < math.inf else 64
        # Only a stall at round-off, which grows with the step count, ends
        # the point: above it the drop can be slow before the 2^p rate sets in.
        stalled = last / 4.0 < err < np.finfo(float).eps * 2 * int(steps.sum())
        if stalled or 2 ** (jump + 1) * int(steps.sum()) > _MAX_STEPS:
            # Report the start of the block that disagrees most with its halves.
            local = np.abs(_pairwise(fine) - coarse).max(axis=(0, 1))
            block = int(np.argmax(np.nan_to_num(local, nan=np.inf)))
            where = _steps(breaks, steps, block * _CHUNK)[0]
            note = "" if math.isfinite(err) else ": the propagator is not finite"
            raise IntegrationError(
                f"Magnus stepping of order {order} missed rtol={rtol:g}, atol={atol:g} with "
                f"{2 * int(steps.sum())} steps{note} (error estimate {err:.3g}"
                + (f", stalled after {last:.3g})" if stalled else ")"), float(where),
                steps=2 * int(steps.sum()), estimate=err)
        last = err
        steps = steps * 2 ** jump
        coarse = fine if jump == 1 else _chunk_products(kernel, breaks, steps)


def propagate(pulses, sys: SystemParams, t_span=None,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> Propagator3:
    """Propagator U(t_f, t_i) of i dU/dt = H(t) U for a pair or a train,
    over t_span (by default the pulse support window); unitary to round-off
    when gamma = 0.

    At Delta = 0 and gamma = 0, real envelopes (every phase a multiple of
    2 pi) take the paper's route over any t_span: the two-state propagator
    of propagate_two_state, lifted to three states by propalg.lift_to_three,
    whose su(2) steps cost 8 multiplies per 2x2 product instead of 27. The
    lift is quadratic in the Cayley-Klein parameters (a, b), so the
    two-state problem is integrated to half of rtol + atol. The half is a
    heuristic, not a bound: with |a|^2 + |b|^2 = 1, an error d in both
    moves an entry of the lift by up to 2 sqrt(2) d, about 1.4 times the
    tolerance in the worst case. An IntegrationError from the route quotes
    rtol and atol as given. Any other case takes the sixth-order 3x3 kernel
    behind the first-pass guard of _integrate, projected onto the nearest
    unitary matrix at gamma = 0.

    On that path one pair, without t_span, with pump and Stokes of equal
    kind, peak and width and phases of whole turns is mirrored: with S the
    swap of states 1 and 3, H(t_i + t_f - t) = S H(t) S and H^T = H at any
    Delta and gamma, so U = S U_h^T S U_h with U_h = U(mid, t_i). Only that
    half is integrated, to half of rtol + atol (its error enters twice); an
    IntegrationError quotes rtol and atol as given, and the half's steps.
    """
    train = _train(pulses)
    if sys.delta == 0 and sys.gamma == 0 and _real_envelopes(train):
        return lift_to_three(extract_ck(_integrate(_two_state_kernel(train), train, t_span,
                                                   rtol, atol, margin=2.0)))
    generator = lambda t: hamiltonian(train, sys, t)
    # An upper bound of ||H||: |Delta - i gamma/2| bounds the diagonal, and
    # the largest peak Rabi frequency bounds the couplings Wp/2 and Ws/2.
    bound = abs(sys.delta) + 0.5 * sys.gamma + _peak(train)
    kernel, guard = _magnus6(generator), (bound, _magnus4(generator))
    if t_span is None and _mirrored(train):
        t_i, t_f = train_window(train)
        uh = _integrate(kernel, train, (t_i, 0.5 * (t_i + t_f)), rtol, atol, margin=2.0,
                        guard=guard)
        # S U_h^T S U_h, where S swaps states 1 and 3.
        u = uh.T[::-1, ::-1] @ uh
    else:
        u = _integrate(kernel, train, t_span, rtol, atol, guard=guard)
    if sys.gamma == 0:
        # The defects of the Taylor step exponentials add up to about 1e-11
        # over thousands of steps; the polar factor removes them and moves u
        # far less than the tolerance. Products of su(2) steps need none.
        w, _, vh = np.linalg.svd(u)
        u = w @ vh
    return u


def propagate_state(initial, pulses, sys: SystemParams, t_span=None,
                    rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> StateVector:
    """Evolve an amplitude vector: c(t_f) = U(t_f, t_i) c(t_i)."""
    c = np.asarray(initial, dtype=complex)
    if c.shape != (3,):
        raise ValueError("state must have three amplitudes")
    return propagate(pulses, sys, t_span, rtol, atol) @ c


def _mirrored(train: PulseTrain) -> bool:
    """One pair whose pulses differ only in position, with real envelopes:
    each pulse is the other reflected about the window's middle."""
    a, b = train.pairs[0].pump, train.pairs[0].stokes
    return (len(train.pairs) == 1 and (a.kind, a.peak, a.width) == (b.kind, b.peak, b.width)
            and _real_envelopes(train))


def _real_envelopes(train: PulseTrain) -> bool:
    """Whether every phase is a multiple of 2 pi, as the two-state mapping needs."""
    return all(x % (2 * np.pi) == 0.0 for p in train.pairs for x in (p.pump_phase, p.stokes_phase))


def _resonant_parts(train: PulseTrain, t) -> np.ndarray:
    """(trace, x, y, z) of the resonant two-state matrix: (0, Wp/2, 0, -Ws/2)."""
    if not _real_envelopes(train):
        raise ValueError("the two-state mapping assumes real envelopes (phases of whole turns)")
    wp, ws = train_envelopes(train, t)
    zero = np.zeros(np.shape(wp))
    return np.array([zero, 0.5 * wp.real, zero, -0.5 * ws.real])


def resonant_two_state_hamiltonian(pulses, t) -> np.ndarray:
    """The real symmetric two-state matrix (1/2)[[-Ws, Wp], [Wp, Ws]].

    Valid on one-photon resonance with gamma = 0 and real envelopes. An
    array t gives a (*t.shape, 2, 2) stack.
    """
    _, x, _, z = _resonant_parts(_train(pulses), t)
    return _matrix({(0, 0): z, (0, 1): x, (1, 0): x, (1, 1): -z}, 2)


def propagate_two_state(pulses, t_span=None,
                        rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """SU(2) propagator of the two-state problem equivalent to resonant STIRAP.

    The equivalent problem evolves under half the couplings of
    resonant_two_state_hamiltonian: the three-state propagator is quadratic
    in the Cayley-Klein parameters, which restores the full rotation angle.
    """
    train = _train(pulses)
    return _integrate(_two_state_kernel(train), train, t_span, rtol, atol)


def _two_state_kernel(train: PulseTrain):
    return _magnus6_su2(lambda t: 0.5 * _resonant_parts(train, t))


def _eliminated_parts(train: PulseTrain, delta: float, t) -> np.ndarray:
    """(trace, x, y, z) of the (c1, c3) problem left when c2 is eliminated
    at |Delta| >> Omega0: the light shifts H00 = -|Wp|^2/(4 Delta) and
    H11 = -|Ws|^2/(4 Delta), and the coupling H01 = x - iy = -Wp Ws/(4 Delta).
    Its two-state form (effective_two_state) is W_eff = 2 H01, which couples
    states 1 and 3, and the effective detuning
    D_eff = 2 (H11 - H00) = (|Wp|^2 - |Ws|^2)/(2 Delta)."""
    wp, ws = train_envelopes(train, t)
    c = -0.25 / delta
    pump, stokes, h01 = abs(wp) ** 2, abs(ws) ** 2, c * wp * ws
    return np.array([0.5 * c * (pump + stokes), h01.real, -h01.imag,
                     0.5 * c * (pump - stokes)])


def effective_two_state(pulses, delta: float):
    """Far-off-resonance reduction: (W_eff(t), D_eff(t)) of _eliminated_parts."""
    if delta == 0:
        raise ValueError("adiabatic elimination needs a nonzero detuning")
    train = _train(pulses)
    if abs(delta) < 10.0 * _peak(train):
        warnings.warn("adiabatic elimination is unreliable for |Delta| < 10*Omega0",
                      stacklevel=2)

    def w_eff(t):
        _, x, y, _ = _eliminated_parts(train, delta, t)
        return 2.0 * (x - 1j * y)

    def d_eff(t):
        return -4.0 * _eliminated_parts(train, delta, t)[3]    # 2 (H11 - H00)

    return w_eff, d_eff


def propagate_effective(pulses, delta: float, t_span=None,
                        rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """2x2 propagator of the adiabatically eliminated (c1, c3) problem of
    _eliminated_parts, light-shift trace included."""
    if delta == 0:
        raise ValueError("adiabatic elimination needs a nonzero detuning")
    train = _train(pulses)
    return _integrate(_magnus6_su2(lambda t: _eliminated_parts(train, delta, t)), train, t_span,
                      rtol, atol)
