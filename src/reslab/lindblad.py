"""Liouvillian superoperators, master-equation integration, steady states.

Vectorization convention (fixed package-wide): column stacking,
``vec(rho) = rho.flatten(order="F")`` so that ``vec(A rho B) =
(B.T kron A) vec(rho)``.  With this convention the closed-system
Liouvillian is ``L = -i (I kron H - H.T kron I)``.

Each dissipative term contributes

    rate * factor * (2 O rho O^dag - O^dag O rho - rho O^dag O)

where ``factor`` encodes the bracket convention: ``0.5`` makes ``rate``
the population transfer rate of the pumped transition, ``1.0`` doubles
it.  Both conventions appear in the literature for the same bracket, so
the factor is explicit per term rather than baked into the engine.

Operators are static matrices or :class:`Harmonic` sums
``O(t) = sum_k exp(-i nu_k t) A_k``, the one time-dependent form: every
rotating-frame Hamiltonian and jump operator of the model is such a
finite Fourier sum, so its frequencies are known exactly rather than
probed.  A static operator is the zero-frequency harmonic.  So is the
generator: each master equation assembles ``L(t) = sum_k exp(-i nu_k t) L_k``
once (:attr:`MasterEquation.liouvillian`), and everything else reads it.

Integration is classical fixed-step fourth-order Runge-Kutta with
automatic step halving until the final state is stable; for
time-independent generators the RK4 step map is a fixed matrix
polynomial in the Liouvillian, so whole intervals are advanced by binary
powering of that matrix (bit-for-bit the same map, composed
associatively).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import qmath
from .errors import (
    DimensionMismatchError,
    IntegrationDivergenceError,
    NotHermitianError,
    SteadyStateError,
)

__all__ = [
    "Harmonic",
    "LindbladTerm",
    "MasterEquation",
    "Trajectory",
    "SteadyStateInfo",
    "vec",
    "unvec",
    "dissipator_matrix",
    "liouvillian_matrix",
    "apply_generator",
    "evolve",
    "steady_state",
]

#: substeps per fastest period: initial step = 1 / (STEP_FRACTION * fastest rate)
STEP_FRACTION = 50.0

#: frequencies closer than this fraction of the largest |frequency| are one
#: harmonic; a merge moves a phase by at most this fraction of the fastest one
FREQUENCY_RTOL = 1e-9


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if dim is None:
        dim = round(math.isqrt(v.size))
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True, eq=False)
class Harmonic:
    """Time-dependent operator ``O(t) = sum_k exp(-i nu_k t) A_k`` with static
    ``A_k``.  Frequencies closer than ``FREQUENCY_RTOL`` times the largest
    ``|nu_k|`` are merged, so the stored ones are distinct and ascending."""

    frequencies: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.frequencies, dtype=float)
        mats = np.asarray(self.matrices, dtype=complex)
        if nu.ndim != 1 or nu.size == 0 or mats.shape != (nu.size, *mats.shape[-2:]):
            raise DimensionMismatchError(f"{nu.shape} frequencies, matrices {mats.shape}")
        order = np.argsort(nu, kind="stable")
        nu, mats = nu[order], mats[order]
        starts = np.flatnonzero(np.diff(nu, prepend=-np.inf) > FREQUENCY_RTOL * np.max(np.abs(nu)))
        counts = np.diff(starts, append=nu.size)
        object.__setattr__(self, "frequencies", np.add.reduceat(nu, starts) / counts)
        object.__setattr__(self, "matrices", np.add.reduceat(mats, starts, axis=0))

    def __call__(self, t: float) -> np.ndarray:
        return np.tensordot(np.exp(-1j * self.frequencies * t), self.matrices, axes=1)

    def map(self, f) -> "Harmonic":
        """The harmonic ``sum_k exp(-i nu_k t) f(A_k)`` for a linear map ``f``."""
        return Harmonic(self.frequencies, [f(a) for a in self.matrices])

    @property
    def rms_frequency(self) -> float:
        """Frobenius-weighted RMS frequency ``sqrt(sum nu^2 |A|^2 / sum |A|^2)``;
        equals ``|dO/dt| / |O|`` when the ``A_k`` are Frobenius-orthogonal."""
        weights = np.sum(np.abs(self.matrices) ** 2, axis=(1, 2))
        total = float(np.sum(weights))
        return math.sqrt(float(np.sum(self.frequencies**2 * weights)) / total) if total else 0.0


def _as_harmonic(op) -> Harmonic:
    return op if isinstance(op, Harmonic) else Harmonic([0.0], [op])


def _check_operator(op, what: str) -> None:
    if callable(op) and not isinstance(op, Harmonic):
        raise TypeError(f"{what} must be a static matrix or a Harmonic, got {type(op).__name__}")


@dataclass(frozen=True)
class LindbladTerm:
    """One rated jump channel; ``operator`` is a static matrix or, for
    frame-transformed channels, a :class:`Harmonic`."""

    rate: float
    operator: object
    factor: float = 0.5

    def __post_init__(self):
        _check_operator(self.operator, "jump operator")
        if self.rate < 0:
            raise ValueError(f"negative rate {self.rate}")
        if self.factor not in (0.5, 1.0):
            # other prefactors are representable through the rate; restricting
            # the factor keeps the two bracket conventions explicit
            raise ValueError(f"factor must be 0.5 or 1.0, got {self.factor}")

    @property
    def is_static(self) -> bool:
        return not isinstance(self.operator, Harmonic)

    def operator_at(self, t: float) -> np.ndarray:
        return _as_harmonic(self.operator)(t)

    def superoperator(self) -> Harmonic:
        """``D[O(t)]`` as a harmonic sum of ``dim^2 x dim^2`` superoperators: the
        pair ``(A_k, A_l)`` of components enters at ``nu_k - nu_l``, added into
        one matrix per merged frequency as it is built."""
        op = _as_harmonic(self.operator)
        nus = np.subtract.outer(op.frequencies, op.frequencies)
        # merged as a harmonic, the unit vectors e_kl mark the pairs of each frequency
        groups = Harmonic(nus.ravel(), np.eye(nus.size)[:, None, :])
        slots = np.argmax(np.abs(groups.matrices[:, 0, :]), axis=0).reshape(nus.shape)
        d = op.matrices.shape[-1]
        out = np.zeros((groups.frequencies.size, d * d, d * d), dtype=complex)
        for (k, l), slot in np.ndenumerate(slots):
            out[slot] += _pair_dissipator(op.matrices[k], op.matrices[l], self.rate * self.factor)
        return Harmonic(groups.frequencies, out)


@dataclass(frozen=True)
class MasterEquation:
    """Hamiltonian plus rated jump terms on a ``dim``-dimensional space.

    ``hamiltonian`` may be None (pure dissipation), a static Hermitian
    matrix, or a :class:`Harmonic`.  ``extra_generator`` is an
    optional constant ``dim^2 x dim^2`` superoperator added verbatim to
    the Liouvillian; it carries generators that are not of Lindblad form
    (rate-equation systems folded onto the trace-one affine subspace).
    """

    dim: int
    hamiltonian: object = None
    terms: tuple = ()
    extra_generator: np.ndarray | None = None

    def __post_init__(self):
        _check_operator(self.hamiltonian, "hamiltonian")
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.extra_generator is not None:
            g = np.asarray(self.extra_generator, dtype=complex)
            if g.shape != (self.dim**2, self.dim**2):
                raise DimensionMismatchError(
                    f"extra generator shape {g.shape} != {(self.dim**2, self.dim**2)}"
                )
            object.__setattr__(self, "extra_generator", g)

    @property
    def is_time_independent(self) -> bool:
        static_h = not isinstance(self.hamiltonian, Harmonic)
        return static_h and all(t.is_static for t in self.terms)

    def hamiltonian_at(self, t: float) -> np.ndarray | None:
        return None if self.hamiltonian is None else _as_harmonic(self.hamiltonian)(t)

    @functools.cached_property
    def liouvillian(self) -> Harmonic:
        """The generator ``L(t) = sum_k exp(-i nu_k t) L_k``, with
        ``vec(drho/dt) = L(t) vec(rho)``; assembled on first use and kept.
        The Hamiltonian's shape and Hermiticity are checked here."""
        d = self.dim
        eye = np.eye(d)
        parts = [Harmonic([0.0], [np.zeros((d * d, d * d))])]
        if self.hamiltonian is not None:
            h = _as_harmonic(self.hamiltonian)
            if h.matrices.shape[1:] != (d, d):
                raise DimensionMismatchError(f"hamiltonian shape {h.matrices.shape} != dim {d}")
            # Hermitian at every t exactly when the component at -nu is the
            # adjoint of the one at nu; a static H is the nu = 0 case
            adjoint = h.matrices.conj().transpose(0, 2, 1)
            gap = Harmonic([*h.frequencies, *-h.frequencies], [*h.matrices, *-adjoint])
            defect = float(np.max(np.abs(gap.matrices)))
            if defect > max(1e-10, 1e-12 * float(np.max(np.abs(h.matrices)))):
                raise NotHermitianError(defect, "hamiltonian is not Hermitian: H(-nu) != H(nu)^dag")
            parts.append(h.map(lambda a: -1j * (np.kron(eye, a) - np.kron(a.T, eye))))
        parts += [term.superoperator() for term in self.terms if term.rate != 0.0]
        if self.extra_generator is not None:
            parts.append(Harmonic([0.0], [self.extra_generator]))
        nus = np.concatenate([p.frequencies for p in parts])
        return Harmonic(nus, np.concatenate([p.matrices for p in parts]))


@dataclass
class Trajectory:
    """Time-indexed density matrices, with integrator refinement stats."""

    times: np.ndarray
    states: list
    substeps: np.ndarray | None = None
    refinements: int = 0

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class SteadyStateInfo:
    null_dimension: int
    degenerate: bool
    residual: float


def _pair_dissipator(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """Superoperator of ``scale * (2 A . B^dag - B^dag A . - . B^dag A)``, the
    ``(A, B)`` pair term of a dissipator; ``A = B = O`` gives ``D[O]``."""
    eye = np.eye(a.shape[0])
    bda = qmath.dag(b) @ a
    return scale * (2.0 * np.kron(b.conj(), a) - np.kron(eye, bda) - np.kron(bda.T, eye))


def dissipator_matrix(op: np.ndarray, rate: float, factor: float) -> np.ndarray:
    """Superoperator of ``rate * factor * (2 O . O^dag - O^dag O . - . O^dag O)``."""
    o = np.asarray(op, dtype=complex)
    return _pair_dissipator(o, o, rate * factor)


def liouvillian_matrix(me: MasterEquation, t: float = 0.0) -> np.ndarray:
    """Matrix ``L`` with ``vec(drho/dt) = L vec(rho)`` at time ``t``."""
    return me.liouvillian(t)


def apply_generator(me: MasterEquation, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Right-hand side ``drho/dt``: the assembled ``L(t)`` applied to ``vec(rho)``."""
    return unvec(me.liouvillian(t) @ vec(rho), me.dim)


def _fastest_scale(me: MasterEquation, t0: float, t1: float) -> float:
    """Fastest rate or angular frequency present in the generator: spectral
    norm of H plus the largest damping rate, plus the RMS oscillation
    frequency of every harmonic piece."""
    omega = 0.0
    h = me.hamiltonian
    if h is not None:
        ts = list(np.linspace(t0, t1, 5)) if isinstance(h, Harmonic) else [t0]
        for t in ts:
            omega = max(omega, float(np.linalg.norm(me.hamiltonian_at(t), 2)))
        if isinstance(h, Harmonic):
            omega += h.rms_frequency
    rate = 0.0
    for term in me.terms:
        o = term.operator_at(t0)
        rate = max(rate, 2.0 * term.rate * term.factor * float(np.linalg.norm(o, 2)) ** 2)
        if not term.is_static:
            omega += term.operator.rms_frequency
    omega += rate
    if me.extra_generator is not None:
        omega += float(np.max(np.abs(me.extra_generator))) * me.dim
    return max(omega, 1.0 / max(t1 - t0, 1e-300))


def _rk4_step_matrix(L: np.ndarray, h: float) -> np.ndarray:
    # RK4 applied to a linear autonomous system is the degree-4 Taylor
    # polynomial of expm(h L)
    eye = np.eye(L.shape[0], dtype=complex)
    A = h * L
    return eye + A @ (eye + (A / 2.0) @ (eye + (A / 3.0) @ (eye + A / 4.0)))


def _integrate_static(me, rho0, times, substeps):
    L = liouvillian_matrix(me, times[0])
    v = vec(rho0)
    states = [np.array(rho0, dtype=complex)]
    cache: dict = {}
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        k = substeps[i]
        key = (dt, k)
        M = cache.get(key)
        if M is None:
            M = np.linalg.matrix_power(_rk4_step_matrix(L, dt / k), k)
            cache[key] = M
        v = M @ v
        states.append(unvec(v, me.dim))
    return states


def _integrate_sampled(me, rho0, times, substeps):
    rho = np.array(rho0, dtype=complex)
    states = [rho.copy()]
    for i in range(len(times) - 1):
        t = times[i]
        h = (times[i + 1] - times[i]) / substeps[i]
        for _ in range(substeps[i]):
            k1 = apply_generator(me, rho, t)
            k2 = apply_generator(me, rho + 0.5 * h * k1, t + 0.5 * h)
            k3 = apply_generator(me, rho + 0.5 * h * k2, t + 0.5 * h)
            k4 = apply_generator(me, rho + h * k3, t + h)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        states.append(rho.copy())
    return states


def evolve(
    me: MasterEquation,
    rho0: np.ndarray,
    t_grid,
    *,
    tol: float = 1e-8,
    trace_tol: float = 1e-9,
    max_refinements: int = 12,
) -> Trajectory:
    """Integrate the master equation over ``t_grid``.

    The substep count is initialized from the fastest rate in the
    generator and doubled until halving the step changes the final state
    by at most ``tol`` (Frobenius) and the trace drift stays below
    ``trace_tol``.

    Raises
    ------
    IntegrationDivergenceError
        If the refinement loop fails to converge; carries the achieved
        final-state difference.
    """
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d array of times")
    if abs(times[0]) > 0.0:
        raise ValueError(f"t_grid must start at 0, got {times[0]}")
    if times.size > 1 and np.any(np.diff(times) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (me.dim, me.dim):
        raise DimensionMismatchError(f"rho0 shape {rho0.shape} != dim {me.dim}")
    defects = qmath.density_matrix_defects(rho0)
    if defects["trace_deviation"] > 1e-9 or defects["hermiticity_defect"] > 1e-10:
        raise ValueError(f"rho0 is not a valid density matrix: {defects}")
    if times.size == 1:
        return Trajectory(times, [rho0.copy()])

    integrate = _integrate_static if me.is_time_independent else _integrate_sampled
    omega = _fastest_scale(me, times[0], times[-1])
    diffs = np.diff(times)
    substeps = np.maximum(1, np.ceil(STEP_FRACTION * omega * diffs).astype(int))

    coarse = integrate(me, rho0, times, substeps)
    achieved = math.inf
    for refinement in range(max_refinements):
        substeps = substeps * 2
        fine = integrate(me, rho0, times, substeps)
        achieved = float(np.linalg.norm(fine[-1] - coarse[-1]))
        drift = max(abs(np.trace(s) - np.trace(rho0)) for s in fine)
        if achieved <= tol and drift <= trace_tol:
            return Trajectory(times, fine, substeps=substeps, refinements=refinement + 1)
        coarse = fine
    raise IntegrationDivergenceError(achieved, tol)


def _trace_functional(dim: int) -> np.ndarray:
    tau = np.zeros(dim * dim, dtype=complex)
    tau[:: dim + 1] = 1.0
    return tau


def steady_state(
    me: MasterEquation,
    *,
    eig_tol: float = 1e-10,
    residual_tol: float = 1e-9,
    return_info: bool = False,
):
    """Trace-one null vector of the Liouvillian.

    The Liouvillian is normalized by its largest entry before the
    eigendecomposition, so ``eig_tol`` and ``residual_tol`` are relative
    to the rate scale of the problem.  A multi-dimensional null space is
    flagged as degenerate and resolved by projecting the maximally mixed
    state onto it.

    Raises
    ------
    SteadyStateError
        If no trace-class null vector exists or the residual target
        cannot be met.
    """
    if not me.is_time_independent:
        raise ValueError("steady_state requires a time-independent master equation")
    d = me.dim
    L = liouvillian_matrix(me, 0.0)
    scale = max(1.0, float(np.max(np.abs(L))))
    Ls = L / scale
    w, v = scipy.linalg.eig(Ls)
    null_mask = np.abs(w) <= eig_tol
    null_dim = int(np.count_nonzero(null_mask))
    if null_dim == 0:
        raise SteadyStateError(
            f"no null eigenvalue found (smallest |eig| = {np.min(np.abs(w)):.3e})"
        )
    q, _ = np.linalg.qr(v[:, null_mask])
    if null_dim == 1:
        cand = q[:, 0]
    else:
        cand = q @ (qmath.dag(q) @ vec(np.eye(d) / d))
    rho = unvec(cand, d)
    rho = 0.5 * (rho + qmath.dag(rho))
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise SteadyStateError("null space contains no trace-class state")
    rho = rho / np.real(tr)

    if null_dim == 1:
        # polish with a bordered least-squares solve (L x = 0, tr x = 1)
        A = np.vstack([Ls, _trace_functional(d)[None, :]])
        b = np.zeros(d * d + 1, dtype=complex)
        b[-1] = 1.0
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        polished = unvec(x, d)
        polished = 0.5 * (polished + qmath.dag(polished))
        tr = np.trace(polished)
        if abs(tr) > 1e-12:
            rho = polished / np.real(tr)

    res = float(np.linalg.norm(Ls @ vec(rho)))
    if res > residual_tol:
        raise SteadyStateError(
            f"steady-state residual {res:.3e} exceeds {residual_tol:.1e} "
            "(relative to the rate scale)"
        )
    info = SteadyStateInfo(null_dimension=null_dim, degenerate=null_dim > 1, residual=res)
    return (rho, info) if return_info else rho
