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
train. Each 3x3 model is written once from the envelopes in its kernel's
dtype: A = -iH (_generator; hamiltonian is iA) and its real gauge
(_gauged). At Delta = 0 real envelopes mean real arithmetic: the paper's
route without decay, the 3x3 kernels on _gauged with it. Off the route, a
mirrored pair is integrated over half its window (see propagate).

The integrator runs a batch of points at once: propagate_many reads any
number, _BATCH at a time, and propagate is the batch of one. Each rung of
the step-doubling ladder (_ladder) evaluates the kernel once per slab of
whole blocks over every pass that the batch's active points make; the
generator reads each step's parameters from its point's row (_row). Every
point keeps its own breakpoints, step counts, tolerance, Taylor degrees,
product tree and result map (_Job), so its bits do not depend on the batch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .phases import is_finite
from .propalg import extract_ck, lift_to_three, reverse
from .pulses import PulseTrain, ShapeKind, _support, table_envelopes, train_table, train_window

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

# Time steps per block. A constant, not a setting: each block's step
# exponentials take the Taylor degree that the block's own largest norm
# picks and are multiplied in a fixed tree, so every output bit depends on
# the point alone, also within a batch.
_CHUNK = 512
# Time steps per kernel call, in whole blocks of any points of a batch. A
# constant, not a setting: it bounds the memory of a call.
_SLAB = 2 * _CHUNK
# Points per batch of propagate_many: enough to share each pass's fixed
# cost, few enough to keep the memory of a batch flat for any grid size.
_BATCH = 256
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
        if not is_finite(self.delta, self.gamma):
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


def _row(pulses, sys: SystemParams) -> np.ndarray:
    """A point as every generator reads it: the train_table of its pulses,
    then Delta and gamma."""
    return np.append(train_table(_train(pulses)), (sys.delta, sys.gamma))


def _matrix(entries, dim: int) -> np.ndarray:
    """A (..., dim, dim) stack from {(row, col): entry}; the other entries
    are zero."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in entries.values()))
    m = np.zeros(shape + (dim, dim), dtype=np.result_type(*entries.values()))
    for (i, j), v in entries.items():
        m[..., i, j] = v
    return m


def _generator(t, cols) -> np.ndarray:
    """A = -iH of dU/dt = A U at t of the points whose _row entries are
    cols[k], the 3x3 kernels' complex model, anti-Hermitian off the diagonal."""
    wp, ws = (-0.5j * w for w in table_envelopes(cols[:-2], t))
    return _matrix({(0, 1): wp, (1, 0): -np.conj(wp), (1, 1): -1j * cols[-2] - 0.5 * cols[-1],
                    (1, 2): ws, (2, 1): -np.conj(ws)}, 3)


def _gauged(t, cols) -> np.ndarray:
    """K = D* A D, D = diag(1, -i, 1), the generator of U_b = D* U D, in
    float64: [[0, -Wp/2, 0], [Wp/2, -gamma/2, Ws/2], [0, -Ws/2, 0]], exact at
    Delta = 0 with real envelopes, the only points that take it (propagate)."""
    wp, ws = (0.5 * w.real for w in table_envelopes(cols[:-2], t))
    return _matrix({(0, 1): -wp, (1, 0): wp, (1, 1): -0.5 * cols[-1], (1, 2): ws, (2, 1): -ws}, 3)


# Entry (j, k) of D* U D, with D = diag(1, -i, 1), is U[j, k] * _GAUGE[j, k].
_GAUGE = np.array([[1, -1j, 1], [1j, 1, 1j], [1, -1j, 1]])


def hamiltonian(pulses, sys: SystemParams, t) -> np.ndarray:
    """The rotating-wave Hamiltonian H = iA of _generator at time(s) t
    (two-photon resonance): a scalar t gives one 3x3 matrix, an array t a
    (*t.shape, 3, 3) stack."""
    return 1j * _generator(t, _row(pulses, sys))


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
                points.update(x for x in _support(shape) if t_i < x < t_f)
    return np.array(sorted(points))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a[..., i] @ b[..., i] of component-major stacks."""
    return np.einsum("ijm,jkm->ikm", a, b)


def _taylor(norm: float) -> tuple[int, int]:
    """The _TAYLOR row and the squarings for a block of 1-norm `norm`."""
    row = next((k for k, (theta, _, _) in enumerate(_TAYLOR) if norm <= theta), len(_TAYLOR) - 1)
    theta = _TAYLOR[row][0]
    # NaN or inf in A: no squarings; the NaN result fails the error estimate.
    return row, math.ceil(math.log2(norm / theta)) if theta < norm < math.inf else 0


def _expm(a: np.ndarray, blocks) -> np.ndarray:
    """exp(A) for a component-major stack A of consecutive blocks of steps
    of the given lengths: a Taylor polynomial in Paterson-Stockmeyer form,
    with scaling and squaring, whose degree and squarings each block's own
    largest 1-norm picks."""
    norms = np.maximum.reduceat(np.sum(np.abs(a), axis=0).max(axis=0),
                                np.cumsum(blocks) - blocks)
    plans = [_taylor(float(x)) for x in norms]
    kinds = sorted(set(plans))
    if len(kinds) == 1:
        return _taylor_exp(a, *kinds[0])
    u = np.empty_like(a)
    step_plan = np.repeat([kinds.index(p) for p in plans], blocks)
    for k, plan in enumerate(kinds):
        steps = np.flatnonzero(step_plan == k)
        u[..., steps] = _taylor_exp(a[..., steps], *plan)
    return u


def _taylor_exp(a: np.ndarray, row: int, squarings: int) -> np.ndarray:
    """exp(A) by the Taylor polynomial of _TAYLOR[row] of A / 2^squarings,
    squared that many times."""
    _, powers, c = _TAYLOR[row]
    p = np.empty((powers + 1,) + a.shape, dtype=a.dtype)
    p[0] = np.eye(a.shape[0])[:, :, None]
    p[1] = a * 2.0 ** -squarings
    for i in range(2, powers + 1):
        p[i] = _mul(p[1], p[i - 1])
    # Horner in A^powers over the blocks sum_i c[j, i] A^i, top block first.
    # c is real, so a real product with the powers acts on their real and
    # imaginary parts alike; one block at a time keeps the memory small.
    flat = p.reshape(powers + 1, -1).view(float)
    u = None
    for coefficients in c[::-1]:
        block = (coefficients @ flat).view(p.dtype).reshape(a.shape)
        u = block if u is None else _mul(u, p[powers]) + block
    for _ in range(squarings):
        u = _mul(u, u)
    return u


def _tree(u: np.ndarray, runs) -> np.ndarray:
    """The ordered products u[..., last] @ ... @ u[..., first] of the
    consecutive runs of u of the given lengths, as a (d, d, runs) stack:
    each multiplied pairwise in a fixed tree, level by level, with an odd
    run end carried by a product with I. A run of one is its own product."""
    runs = np.asarray(runs)
    out = np.empty(u.shape[:2] + runs.shape, dtype=u.dtype)
    live = np.arange(len(runs))
    while True:
        done = runs == 1
        if done.any():
            out[..., live[done]] = u[..., (np.cumsum(runs) - 1)[done]]
            if done.all():
                return out
            u, live, runs = u[..., np.repeat(~done, runs)], live[~done], runs[~done]
        odd = runs % 2 == 1
        if odd.any():
            u = np.insert(u, np.cumsum(runs)[odd], np.eye(u.shape[0])[:, :, None], axis=-1)
            runs = runs + odd
        u, runs = _mul(u[..., 1::2], u[..., 0::2]), runs // 2


def _steps(lo, hi, steps, k):
    """Start, length and segment of global step(s) k when segment s,
    [lo[s], hi[s]], is cut into steps[s] equal steps."""
    ends = np.cumsum(steps)
    seg = np.searchsorted(ends, k, side="right")
    h = (hi[seg] - lo[seg]) / steps[seg]
    return lo[seg] + (k - ends[seg] + steps[seg]) * h, h, seg


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
    """alpha_1..3 of a 3x3 generator A of dU/dt = A U, real or complex, from
    A on the nodes: (3, 3, 3, m)."""
    nodes = generator(start + _NODES6[:, None] * h)
    # One real product of _ALPHA with the node stack, then
    # component-major in C order: _mul is slower on strided views. h is cast
    # first: a casting multiply allocates a buffer, which raised peak RSS.
    flat = nodes.reshape(3, -1).view(float)
    alpha = np.moveaxis((_ALPHA @ flat).view(nodes.dtype).reshape(nodes.shape), 1, -1)
    return np.multiply(alpha, h.astype(alpha.dtype), order="C")


# A step kernel is (step, order): step(generator, start, h, blocks) gives
# the (d, d, m) stack of step exponentials of steps [start, start + h]
# that fall in consecutive blocks of the given lengths.

def _magnus4(generator, start, h, blocks):
    """The fourth-order kernel of a 3x3 generator, the truncation of
    _magnus6 on the same nodes: exp(alpha_1 + alpha_3/12 - [alpha_1, alpha_2]/12)."""
    a1, a2, a3 = _alphas(generator, start, h)
    return _expm(a1 + a3 / 12.0 - _commutator(a1, a2) / 12.0, blocks)


def _magnus6(generator, start, h, blocks):
    """The sixth-order kernel of a 3x3 generator: exp(Omega) from the
    alpha_k of _alphas (Blanes et al.). With C1 = [alpha_1, alpha_2] and
    C2 = -(1/60) [alpha_1, 2 alpha_3 + C1], Omega is
    alpha_1 + alpha_3/12 + (1/240) [-20 alpha_1 - alpha_3 + C1, alpha_2 + C2].
    The series converges only for h ||H|| < pi (see _plan's guard)."""
    a1, a2, a3 = _alphas(generator, start, h)
    c1 = _commutator(a1, a2)
    c2 = (-1.0 / 60.0) * _commutator(a1, 2.0 * a3 + c1)
    return _expm(a1 + a3 / 12.0 + _commutator(c1 - 20.0 * a1 - a3, a2 + c2) / 240.0, blocks)


def _magnus6_su2(parts, start, h, blocks):
    """The sixth-order kernel of H = trace + (x, y, z).sigma, a Hermitian
    2x2 generator given as parts(t), the real (4, *t.shape) stack of
    (trace, x, y, z), which is all it reads: step stacks in closed form
    from H on the three nodes; each step is exact to round-off, so the
    blocks do not matter.

    Each alpha_k = h sum_n _ALPHA[k, n] H(node n) of Blanes et al. is
    -i(t_k + a_k.sigma) with a real trace t_k and vector a_k, and
    [x.sigma, y.sigma] = 2i (x*y).sigma, so their commutators are cross
    products: with p = a1*a2, C1 is 2p and C2 is -(1/15) a1*(a3 + p), and
    the step is exp(-i(t + w.sigma)) with t = t1 + t3/12 and
    w = a1 + a3/12 + (1/120) (2p - 20 a1 - a3)*(a2 + C2).
    """
    # (trace, x, y, z) of alpha_1..3: (4, 3, m).
    alpha = (_ALPHA @ parts(start + _NODES6[:, None] * h)) * h
    t, (a1, a2, a3) = alpha[0], alpha[1:].transpose(1, 0, 2)
    p = _cross(a1, a2)
    c2 = (-1.0 / 15.0) * _cross(a1, a3 + p)
    w = a1 + a3 / 12.0 + _cross(2.0 * p - 20.0 * a1 - a3, a2 + c2) / 120.0
    return _su2_exp(t[0] + t[2] / 12.0, w)


_MAGNUS4, _MAGNUS6, _MAGNUS6_SU2 = (_magnus4, 4), (_magnus6, 6), (_magnus6_su2, 6)


def _chunk_products(kernel, model, passes) -> list:
    """Products over consecutive blocks of _CHUNK steps of every pass of
    `passes`, a list of (row, breaks, steps) of points: per pass a
    (d, d, blocks) stack; with step counts doubled, block j spans blocks
    2j, 2j+1. The kernel runs once per slab of at most _SLAB steps in whole
    blocks, on the generator model(t, cols), where cols[k] holds entry k of
    the row of each step's point. An overflow fails the point through its
    non-finite estimate, without numpy warnings."""
    step, _ = kernel
    rows, lo, hi, counts = zip(*((row, b[:-1], b[1:], s) for row, b, s in passes))
    table = np.stack(rows, axis=1)
    owner = np.repeat(np.arange(len(passes)), [len(s) for s in counts])
    lo, hi, counts = (np.concatenate(x) for x in (lo, hi, counts))
    totals = [int(s.sum()) for _, _, s in passes]
    slabs, size = [[]], 0
    for total in totals:
        for first in range(0, total, _CHUNK):
            block = min(_CHUNK, total - first)
            if size + block > _SLAB:
                slabs.append([])
                size = 0
            slabs[-1].append(block)
            size += block
    out, first = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for blocks in slabs:
            k = np.arange(first, first + sum(blocks))
            first = k[-1] + 1
            start, h, seg = _steps(lo, hi, counts, k)
            cols = table[:, owner[seg]]
            out.append(_tree(step(lambda t: model(t, cols), start, h, blocks), blocks))
    ends = np.cumsum([-(-total // _CHUNK) for total in totals])
    return np.split(np.concatenate(out, axis=-1), ends[:-1], axis=-1)


class _Job(NamedTuple):
    """One point's integration: its kernel and generator model(t, cols) (A
    of dU/dt = A U for a 3x3 kernel, H's parts for the su(2) one), its _row,
    breakpoints, first step counts per segment, tolerance, rtol and atol as
    given for its messages, and the map `result` of its bare ordered
    product to the point's result."""
    kernel: tuple
    model: Callable
    row: np.ndarray
    breaks: np.ndarray
    steps: np.ndarray
    tol: float
    rtol: float
    atol: float
    result: Callable


def _plan(kernel, model, train: PulseTrain, row, t_span, rtol, atol, margin=1.0,
          bound=None, result=lambda u: u) -> _Job:
    """The job that integrates U(t_f, t_i) by the kernel of `model` (see
    _Job and _ladder); t_span defaults to the support window of `train`.

    A guard bound is an upper bound of ||H||. Each segment's first pass then
    takes steps of h * bound <= 3, inside the Magnus convergence radius pi
    (Moan and Niesen, Found. Comput. Math. 8, 291 (2008)). Where the fine
    pass of those steps would pass _MAX_STEPS, the point is integrated as
    without the guard, by the fourth-order kernel instead. A first pass
    beyond _MAX_STEPS raises IntegrationError here; a t_span that is not
    increasing, or an rtol or atol that is not finite and > 0, ValueError.
    """
    if not (is_finite(rtol, atol) and rtol > 0 and atol > 0):
        raise ValueError("rtol and atol must be finite numbers > 0")
    t_i, t_f = train_window(train) if t_span is None else t_span
    if not t_i < t_f:
        raise ValueError("need t_i < t_f")
    breaks = _breakpoints(train, (float(t_i), float(t_f)))
    # Start from steps of at most half a pulse width, so that no envelope
    # is stepped over unsampled. The count is checked as a float, inf
    # beyond float range: as an int, 1e19 widths would wrap around int64.
    with np.errstate(over="ignore"):
        steps = np.ceil(np.diff(breaks) / (0.5 * _min_width(train)))
        if bound is not None:
            guarded = np.maximum(steps, np.ceil(np.diff(breaks) * (bound / 3.0)))
            if 2 * guarded.sum() <= _MAX_STEPS:
                steps = guarded
            else:
                kernel = _MAGNUS4
        if not 2 * steps.sum() <= _MAX_STEPS:
            raise IntegrationError(
                f"Magnus stepping of order {kernel[1]} needs over {_MAX_STEPS} steps for a "
                f"window of {t_f - t_i:g} with pulses {_min_width(train):g} wide", float(t_i),
                steps=float(2 * steps.sum()))
    return _Job(kernel, model, row, breaks, steps.astype(np.int64), (atol + rtol) / margin,
                rtol, atol, result)


def _ladder(jobs) -> list:
    """Per job its result (see _Job) or the IntegrationError that ends it;
    an exception in place of a job comes back as it is.

    Passes at n and 2n steps per segment give the Richardson estimate
    max|U_2n - U_n| / (2^p - 1), but never less than the round-off
    eps sqrt(2n) of U_2n. Until it is within the job's tolerance, the step
    counts jump by the doublings that the 2^p-fold drop per doubling
    predicts. A job fails at once when a jump would pass _MAX_STEPS, or
    when an estimate at round-off level is not at least 4x below the one
    before it: stalled there, the estimate would otherwise creep up the
    ladder one doubling at a time. An IntegrationError quotes rtol and atol
    as given.

    Jobs of one kernel and generator climb together: each rung makes one
    _chunk_products call over the passes of all those still climbing.
    """
    out = list(jobs)
    groups = {}
    for i, job in enumerate(jobs):
        if not isinstance(job, Exception):
            groups.setdefault((job.kernel, job.model, len(job.row)), []).append(i)
    for (kernel, model, _), members in groups.items():
        for i, u in zip(members, _rungs(kernel, model, [jobs[i] for i in members])):
            out[i] = u
    return out


def _rungs(kernel, model, jobs) -> list:
    """_ladder for jobs of one kernel and model."""
    order, eps = kernel[1], np.finfo(float).eps
    out = [None] * len(jobs)
    steps = [job.steps for job in jobs]
    last = [math.inf] * len(jobs)
    coarse = [None] * len(jobs)
    active = list(range(len(jobs)))
    while active:
        passes = [(jobs[i].row, jobs[i].breaks, s) for i in active
                  for s in ((2 * steps[i],) if coarse[i] is not None
                            else (steps[i], 2 * steps[i]))]
        products = iter(_chunk_products(kernel, model, passes))
        fine = []
        for i in active:
            if coarse[i] is None:
                coarse[i] = next(products)
            fine.append(next(products))
        both = fine + [coarse[i] for i in active]
        u = _tree(np.concatenate(both, axis=-1), [x.shape[-1] for x in both])
        n = len(active)
        totals = [int(steps[i].sum()) for i in active]
        # The divisor shrinks the truncation error of U_2n, not its
        # round-off, which adds up like eps sqrt(steps). Without the floor,
        # a difference at round-off passes for 63 times less at p = 6.
        # (np.maximum keeps a NaN difference NaN.)
        errs = np.maximum(np.max(np.abs(u[..., :n] - u[..., n:]), axis=(0, 1))
                          / (2.0 ** order - 1.0), eps * np.sqrt(2 * np.array(totals)))
        climbing = []
        for j, i in enumerate(active):
            err, tol, total = float(errs[j]), jobs[i].tol, totals[j]
            if err <= tol:
                out[i] = jobs[i].result(u[..., j].copy())
                continue
            # At most 64 doublings, which overshoot _MAX_STEPS anyway (err / tol
            # is inf for a subnormal tol; err may be inf or NaN). The check
            # is made in Python ints: 2 ** 64 times an int64 overflows.
            ratio = err / tol
            jump = math.ceil(min(math.log(ratio, 2.0 ** order), 64.0)) if ratio < math.inf else 64
            # Only a stall at round-off, which grows with the step count, ends
            # the point: above it the drop can be slow before the 2^p rate sets in.
            stalled = last[i] / 4.0 < err < eps * 2 * total
            if stalled or 2 ** (jump + 1) * total > _MAX_STEPS:
                out[i] = _failure(jobs[i], order, steps[i], fine[j], coarse[i], err,
                                  last[i] if stalled else None)
                continue
            last[i] = err
            steps[i] = steps[i] * 2 ** jump
            coarse[i] = fine[j] if jump == 1 else None
            climbing.append(i)
        active = climbing
    return out


def _failure(job: _Job, order, steps, fine, coarse, err, stalled_after) -> IntegrationError:
    """The IntegrationError of a job that gives up at these passes, at the
    start of the block that disagrees most with its halves."""
    k = fine.shape[-1]
    local = np.abs(_tree(fine, [2] * (k // 2) + [1] * (k % 2)) - coarse).max(axis=(0, 1))
    block = int(np.argmax(np.nan_to_num(local, nan=np.inf)))
    where = _steps(job.breaks[:-1], job.breaks[1:], steps, block * _CHUNK)[0]
    note = "" if math.isfinite(err) else ": the propagator is not finite"
    stalled = "" if stalled_after is None else f", stalled after {stalled_after:.3g}"
    return IntegrationError(
        f"Magnus stepping of order {order} missed rtol={job.rtol:g}, atol={job.atol:g} with "
        f"{2 * int(steps.sum())} steps{note} (error estimate {err:.3g}{stalled})",
        float(where), steps=2 * int(steps.sum()), estimate=err)


def _raised(u):
    """u, unless it is the exception that ended its point: then raise it."""
    if isinstance(u, Exception):
        raise u
    return u


def _integrate(kernel, model, pulses, row, t_span, rtol, atol, bound=None) -> np.ndarray:
    """The bare product of one job (see _plan and _ladder), a batch of one."""
    return _raised(_ladder([_plan(kernel, model, _train(pulses), row, t_span, rtol, atol,
                                  bound=bound)])[0])


def _polar(u: np.ndarray) -> np.ndarray:
    """The nearest unitary matrix: the defects of the Taylor step
    exponentials add up to about 1e-11 over thousands of steps; the polar
    factor removes them and moves u far less than the tolerance. Products
    of su(2) steps need none."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _propagation(train: PulseTrain, sys: SystemParams, t_span, rtol, atol):
    """The job of propagate for one point, or the ValueError or
    IntegrationError that ends it before its ladder."""
    row = _row(train, sys)
    try:
        real = sys.delta == 0 and _real_envelopes(train)
        if real and sys.gamma == 0:
            return _plan(_MAGNUS6_SU2, _route_parts, train, row, t_span, rtol, atol, margin=2.0,
                         result=lambda u: lift_to_three(extract_ck(u)))
        # An upper bound of ||H||: |Delta - i gamma/2| bounds the diagonal, and
        # the largest peak Rabi frequency bounds the couplings Wp/2 and Ws/2.
        bound = abs(sys.delta) + 0.5 * sys.gamma + _peak(train)
        model = _gauged if real else _generator
        # U = D U_b D* of a product U_b of _gauged steps, before all else.
        back = (lambda u: u * _GAUGE.conj()) if real else lambda u: u
        unitary = _polar if sys.gamma == 0 else lambda u: u
        if t_span is None and _mirrored(train):
            t_i, t_f = train_window(train)
            # S U_h^T S U_h, where S swaps states 1 and 3.
            return _plan(_MAGNUS6, model, train, row, (t_i, 0.5 * (t_i + t_f)), rtol,
                         atol, margin=2.0, bound=bound,
                         result=lambda uh: unitary(reverse(back(uh).T) @ back(uh)))
        return _plan(_MAGNUS6, model, train, row, t_span, rtol, atol, bound=bound,
                     result=lambda u: unitary(back(u)))
    except (ValueError, IntegrationError) as exc:
        return exc


def propagate_many(points, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> list:
    """propagate for every (pulses, sys, t_span) of `points`, any iterable,
    read and laddered _BATCH points at a time: per point its propagator, bit
    for bit as propagate gives it, or the ValueError or IntegrationError
    that ends that point alone. An exception given as a point is its result."""
    points, out = iter(points), []
    while batch := list(islice(points, _BATCH)):
        out += _ladder([p if isinstance(p, Exception)
                        else _propagation(_train(p[0]), *p[1:], rtol, atol) for p in batch])
    return out


def propagate(pulses, sys: SystemParams, t_span=None,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Propagator U(t_f, t_i) of i dU/dt = H(t) U for a pair or a train,
    over t_span (by default the pulse support window); unitary to round-off
    when gamma = 0. It is the batch of one of propagate_many.

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
    behind the first-pass guard of _plan, projected onto the nearest
    unitary matrix at gamma = 0. At Delta = 0 with real envelopes it runs in
    float64 on K = D* A D, A = -iH, D = diag(1, -i, 1) (_gauged), and maps
    its product back by D U_b D*, which moves no modulus, no step count.

    On that path one pair, without t_span, with pump and Stokes of equal
    kind, peak and width and phases of whole turns is mirrored: with S the
    swap of states 1 and 3, H(t_i + t_f - t) = S H(t) S and H^T = H at any
    Delta and gamma, so U = S U_h^T S U_h with U_h = U(mid, t_i). Only that
    half is integrated, to half of rtol + atol (its error enters twice); an
    IntegrationError quotes rtol and atol as given, and the half's steps.
    """
    return _raised(propagate_many([(pulses, sys, t_span)], rtol, atol)[0])


def _mirrored(train: PulseTrain) -> bool:
    """One pair whose pulses differ only in position, with real envelopes:
    each pulse is the other reflected about the window's middle."""
    a, b = train.pairs[0].pump, train.pairs[0].stokes
    return (len(train.pairs) == 1 and (a.kind, a.peak, a.width) == (b.kind, b.peak, b.width)
            and _real_envelopes(train))


def _real_envelopes(train: PulseTrain) -> bool:
    """Whether every phase is a multiple of 2 pi, as real arithmetic needs."""
    return all(x % (2 * np.pi) == 0.0 for p in train.pairs for x in (p.pump_phase, p.stokes_phase))


def _two_state(pulses) -> tuple[PulseTrain, np.ndarray]:
    """The train and _row of the resonant two-state problem of `pulses`."""
    train = _train(pulses)
    if not _real_envelopes(train):
        raise ValueError("the two-state mapping assumes real envelopes (phases of whole turns)")
    return train, _row(train, SystemParams())


def _route_parts(t, cols) -> np.ndarray:
    """(trace, x, y, z) of the generator of propagate_two_state, (0, Wp/4,
    0, -Ws/4): half of resonant_two_state_hamiltonian's, bit for bit."""
    wp, ws = table_envelopes(cols[:-2], t)
    zero = np.zeros(np.shape(wp))
    return np.array([zero, 0.25 * wp.real, zero, -0.25 * ws.real])


def resonant_two_state_hamiltonian(pulses, t) -> np.ndarray:
    """The real symmetric two-state matrix (1/2)[[-Ws, Wp], [Wp, Ws]].

    Valid on one-photon resonance with gamma = 0 and real envelopes. An
    array t gives a (*t.shape, 2, 2) stack.
    """
    _, x, _, z = 2.0 * _route_parts(t, _two_state(pulses)[1])
    return _matrix({(0, 0): z, (0, 1): x, (1, 0): x, (1, 1): -z}, 2)


def propagate_two_state(pulses, t_span=None,
                        rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """SU(2) propagator of the two-state problem equivalent to resonant STIRAP.

    The equivalent problem evolves under half the couplings of
    resonant_two_state_hamiltonian: the three-state propagator is quadratic
    in the Cayley-Klein parameters, which restores the full rotation angle.
    """
    train, row = _two_state(pulses)
    return _integrate(_MAGNUS6_SU2, _route_parts, train, row, t_span, rtol, atol)


def _eliminated_parts(t, cols) -> np.ndarray:
    """(trace, x, y, z) of the (c1, c3) problem left when c2 is eliminated
    at |Delta| >> Omega0: the light shifts H00 = -|Wp|^2/(4 Delta) and
    H11 = -|Ws|^2/(4 Delta), and the coupling H01 = x - iy = -Wp Ws/(4 Delta).
    Its two-state form (effective_two_state) is W_eff = 2 H01, which couples
    states 1 and 3, and the effective detuning
    D_eff = 2 (H11 - H00) = (|Wp|^2 - |Ws|^2)/(2 Delta)."""
    wp, ws = table_envelopes(cols[:-2], t)
    c = -0.25 / cols[-2]
    pump, stokes, h01 = abs(wp) ** 2, abs(ws) ** 2, c * wp * ws
    return np.array([0.5 * c * (pump + stokes), h01.real, -h01.imag,
                     0.5 * c * (pump - stokes)])


def _eliminated(pulses, delta: float) -> tuple[PulseTrain, np.ndarray]:
    """The train and _row of the eliminated problem of `pulses` at delta."""
    if delta == 0:
        raise ValueError("adiabatic elimination needs a nonzero detuning")
    train = _train(pulses)
    return train, _row(train, SystemParams(delta))


def effective_two_state(pulses, delta: float):
    """Far-off-resonance reduction: (W_eff(t), D_eff(t)) of _eliminated_parts."""
    train, row = _eliminated(pulses, delta)
    if abs(delta) < 10.0 * _peak(train):
        warnings.warn("adiabatic elimination is unreliable for |Delta| < 10*Omega0",
                      stacklevel=2)

    def w_eff(t):
        _, x, y, _ = _eliminated_parts(t, row)
        return 2.0 * (x - 1j * y)

    def d_eff(t):
        return -4.0 * _eliminated_parts(t, row)[3]    # 2 (H11 - H00)

    return w_eff, d_eff


def propagate_effective(pulses, delta: float, t_span=None,
                        rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """2x2 propagator of the adiabatically eliminated (c1, c3) problem of
    _eliminated_parts, light-shift trace included."""
    train, row = _eliminated(pulses, delta)
    return _integrate(_MAGNUS6_SU2, _eliminated_parts, train, row, t_span, rtol, atol)
