"""Liouvillian superoperators, master-equation integration, steady states.

Vectorization convention (fixed package-wide): column stacking,
``vec(rho) = rho.flatten(order="F")`` so that ``vec(A rho B) =
(B.T kron A) vec(rho)``.  With this convention the closed-system
Liouvillian is ``L = -i (I kron H - H.T kron I)``.

Operators are static matrices or :class:`Harmonic` sums
``O(t) = sum_k exp(-i nu_k t) A_k``, the one time-dependent form: every
rotating-frame Hamiltonian and jump operator of the model is such a
finite Fourier sum, so its frequencies are known exactly rather than
probed.  A static operator is the zero-frequency harmonic.  So is the
generator: each master equation assembles ``L(t) = sum_k exp(-i nu_k t) L_k``
once (:attr:`MasterEquation.liouvillian`), and everything else reads it.

Integration is exponential and runs in one coordinate system: the real
coordinates ``x = B vec(rho)`` of an orthonormal Hermitian operator basis
(the coherence vector), where a Hermiticity-preserving ``L`` is a real
matrix ``R(t) = R_0 + sum_{nu > 0} cos(nu t) C_nu + sin(nu t) S_nu``, built
once per master equation; the states map back by ``B^dag`` at the output
times, and a real ``x`` is Hermitian by construction.  Every exponential is
one Taylor kernel on numpy (:func:`_exp_action`), its degree set by one
table of double-precision bounds (Al-Mohy & Higham).  A static generator's
interval map ``M = expm(dt R_0)`` is exact, built once per interval length
(lengths equal up to rounding count as one, and the map spans their mean)
by that kernel on the identity, scaled and squared (:func:`_expm`); a run
of ``n`` equal intervals takes one pass in blocks by the powers ``[M, ...,
M^b]``, ``b = ceil(sqrt n)``.  A time-dependent one cuts each output
interval into ``k`` equal substeps, each ``[t, t + h]`` applying
``expm(Omega)`` with the fourth-order Magnus exponent

    Omega = int_t^{t+h} L(s) ds + (sqrt(3)/12) h^2 [A_2, A_1],
    A_i = L(t + c_i h),  c = 1/2 -+ sqrt(3)/6 (the Gauss-Legendre nodes).

The integral is exact for every harmonic, so the step is exact when the
harmonics commute, and its error is set by their commutators, not by
their frequencies (Iserles, BIT 42, 561 (2002); Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009)): the first count spans at most about 2 rad of
the fastest harmonic or ``h ||R|| = 1/4``, whichever takes fewer steps, and
it is doubled until halving the step moves the final state by at most
``tol`` (the step-doubling loop :func:`_refine`, which
:func:`frames.schroedinger_evolve` shares).
A pass takes its steps in blocks across interval ends (:func:`_magnus_pass`),
each block's exponents formed in one buffer (:func:`_magnus_exponents`) and
applied to the state, never formed, by one call of the Taylor kernel at the
least degree whose bound covers ``h ||R|| + (sqrt(3)/6) (h ||R||)^2``, a
bound on ``||Omega||_1`` from the one ``||R|| >= ||R(t)||_1`` of the master
equation; only an exponent past the table's largest bound is formed, by
:func:`_expm`.  Every ``L(t)`` annihilates the trace functional and maps
Hermitian matrices to Hermitian ones, and so does their integral, their
commutator and every Taylor term, so each step keeps trace and Hermiticity.

When the grid is longer than the period ``T`` of ``L``, the steps cover one
period only: the identity is carried through the points ``t mod T``, and
each state is ``M(t mod T) M(T)^n x0`` with the powers of the one-period
map taken only between the distinct whole counts ``n`` (Floquet theory;
Grifoni & Haenggi, Phys. Rep. 304, 229 (1998)); :func:`_span_states`
assembles them for :func:`frames.schroedinger_evolve` too.  ``evolve``
takes those powers in coordinates whose first one is the trace, and sets
that row of ``M(T)`` to the exact trace functional when the two differ by
rounding alone, so no power of ``M(T)`` moves the trace.

A static generator's steady state is the null vector of ``R_0`` in these
real coordinates, from one SVD (:func:`steady_state`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    "liouvillian_matrix",
    "apply_generator",
    "evolve",
    "steady_state",
]

#: frequencies closer than this fraction of the largest |frequency| are one
#: harmonic; a merge moves a phase by at most this fraction of the fastest one
FREQUENCY_RTOL = 1e-9

#: a frequency ratio is commensurate when a fraction whose denominator is at
#: most PERIOD_MAX_DENOMINATOR matches it to PERIOD_RTOL (relative).  Such
#: fractions typically stay 1e-8 or more from an irrational ratio, far above
#: the tolerance, and a larger denominator gives a period too long to use.
PERIOD_MAX_DENOMINATOR = 10_000
PERIOD_RTOL = 1e-12


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """The ``dim x dim`` matrix whose :func:`vec` is ``v``."""
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


@dataclass(frozen=True, eq=False)
class Harmonic:
    """Time-dependent operator ``O(t) = sum_k exp(-i nu_k t) A_k`` with static
    ``A_k``.  Frequencies closer than ``FREQUENCY_RTOL`` times the largest
    ``|nu_k|`` are merged, so the stored ones are distinct and ascending;
    those that close to 0 are 0, and so are sums that cancel up to rounding.
    When they are commensurate, ``O`` repeats with :attr:`period`.

    A single component, or frequencies already ascending and distinct, skip
    the sort and the merge, and complex matrices are then stored without a
    copy, so they must not be changed after the harmonic is built."""

    frequencies: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.frequencies, dtype=float)
        mats = np.asarray(self.matrices, dtype=complex)
        if nu.ndim != 1 or nu.size == 0 or mats.shape != (nu.size, *mats.shape[-2:]):
            raise DimensionMismatchError(f"{nu.shape} frequencies, matrices {mats.shape}")
        magnitudes = np.abs(nu)
        tol = FREQUENCY_RTOL * magnitudes.max()
        nu = np.where(magnitudes <= tol, 0.0, nu)
        if nu.size > 1:
            if (nu[1:] < nu[:-1]).any():
                order = np.argsort(nu, kind="stable")
                nu, mats = nu[order], mats[order]
            gaps = nu[1:] - nu[:-1] > tol
            if not gaps.all():
                starts = np.flatnonzero(np.concatenate([[True], gaps]))
                counts = np.diff(starts, append=nu.size)
                nu, mats = np.add.reduceat(nu, starts) / counts, np.add.reduceat(mats, starts, axis=0)
        object.__setattr__(self, "frequencies", nu)
        object.__setattr__(self, "matrices", mats)

    def __call__(self, t) -> np.ndarray:
        """``O(t)``; an array of times of shape ``S`` gives the stack ``S + (d, d)``."""
        phases = np.exp(-1j * np.multiply.outer(t, self.frequencies))
        return np.tensordot(phases, self.matrices, axes=1)

    @functools.cached_property
    def period(self) -> float | None:
        """The smallest ``T > 0`` with ``nu_k T`` in ``2 pi Z`` for every stored
        frequency, or None for a static or an incommensurate harmonic.

        Each ``|nu_k|`` over the smallest nonzero ``|nu|`` is fitted by a
        fraction ``p_k / q_k`` with ``q_k <= PERIOD_MAX_DENOMINATOR`` and must
        match it to ``PERIOD_RTOL``; then ``T = 2 pi lcm(q_k) / min |nu|``.
        """
        nu = np.abs(self.frequencies[self.frequencies != 0.0])
        if nu.size == 0:
            return None
        ratios = nu / np.min(nu)
        fits = [Fraction(x).limit_denominator(PERIOD_MAX_DENOMINATOR) for x in ratios]
        if any(abs(x - float(f)) > PERIOD_RTOL * x for x, f in zip(ratios, fits)):
            return None
        return 2.0 * math.pi * math.lcm(*(f.denominator for f in fits)) / float(np.min(nu))

    @property
    def mean(self) -> np.ndarray:
        """The long-time average of ``O(t)``: its zero-frequency component, or
        zeros when it has none, since every other component oscillates.

        On a jump term's superoperator this is the rotating-wave (secular)
        oracle.  Averaging the jump operator itself would discard the terms
        that survive in ``O rho O^dag``; averaging ``D[O(t)]`` keeps the
        products of equal-frequency components, and the merged ``nu_k`` are
        distinct, so for a harmonic jump the average is exactly the secular
        sum ``sum_k D[A_k]``; a static term is its own average."""
        zero = np.flatnonzero(self.frequencies == 0.0)
        return self.matrices[zero[0]] if zero.size else np.zeros_like(self.matrices[0])

    def map(self, f) -> "Harmonic":
        """The harmonic ``sum_k exp(-i nu_k t) f(A_k)`` for a linear map ``f``
        that acts matrix by matrix on the stack of components it is given."""
        return Harmonic(self.frequencies, f(self.matrices))


def _as_harmonic(op) -> Harmonic:
    return op if isinstance(op, Harmonic) else Harmonic([0.0], [op])


def _check_operator(op, what: str) -> None:
    if callable(op) and not isinstance(op, Harmonic):
        raise TypeError(f"{what} must be a static matrix or a Harmonic, got {type(op).__name__}")


@functools.cache
def _hermitian_basis(dim: int) -> np.ndarray:
    """The unitary ``B`` whose rows are ``vec(E_a)^dag`` for the orthonormal
    Hermitian basis ``|i><i|``, ``(|i><j| + |j><i|)/sqrt 2`` and
    ``i (|i><j| - |j><i|)/sqrt 2`` (``i < j``): ``B vec(rho)`` is real for
    every Hermitian ``rho``.  Built once per dimension, shared and read-only."""
    eye = np.eye(dim * dim)
    i, j = np.triu_indices(dim, 1)
    ij, ji = eye[i + dim * j], eye[j + dim * i]  # vec(|i><j|), vec(|j><i|)
    root2 = math.sqrt(2.0)
    basis = np.concatenate([eye[:: dim + 1], (ij + ji) / root2, -1j * (ij - ji) / root2])
    basis.flags.writeable = False
    return basis


@dataclass(frozen=True, eq=False)
class _RealGenerator:
    """A Hermiticity-preserving generator in the coordinates ``x = B vec(rho)``
    of :func:`_hermitian_basis`: ``R(t) = C_0 + sum_{nu > 0} cos(nu t) C_nu +
    sin(nu t) S_nu``, every ``C_nu`` and ``S_nu`` real.  It keeps only what can
    contribute: ``frequencies`` ascend from 0, ``matrices`` holds ``C_nu`` at
    each of them, then ``S_nu`` at each past 0 (``S_0`` multiplies sin 0)."""

    basis: np.ndarray
    frequencies: np.ndarray
    matrices: np.ndarray  # C_0, the C_nu, then the S_nu over nu > 0

    def __call__(self, t, weights=None, out=None) -> np.ndarray:
        """``R(t)``; an array of times of shape ``S`` gives the stack ``S + (n, n)``,
        one matrix product of the phases with the components, written into
        ``out`` (C-contiguous) when it is given.  ``weights``, an array whose
        last axis runs over the ``F`` frequencies, broadcast against
        ``S + (F,)``, scales each time's phase row,
        the cosine and the sine of a frequency alike, so the product gives
        ``sum_nu w_nu (cos(nu t) C_nu + sin(nu t) S_nu)`` at no further pass
        over the stack."""
        w = np.ones(self.frequencies.size) if weights is None else np.asarray(weights)
        nt = np.multiply.outer(t, self.frequencies[1:])
        phases = np.empty((*nt.shape[:-1], self.matrices.shape[0]))
        phases[..., 0] = w[..., 0]  # cos 0 = 1
        halves = phases[..., 1:].reshape(*nt.shape[:-1], 2, nt.shape[-1])  # the cosines, then the sines
        np.multiply(np.cos(nt), w[..., 1:], out=halves[..., 0, :])
        np.multiply(np.sin(nt), w[..., 1:], out=halves[..., 1, :])
        shape = (*phases.shape[:-1], *self.matrices.shape[1:])
        flat = out.reshape(-1, shape[-1] * shape[-1]) if out is not None else None
        components = self.matrices.reshape(phases.shape[-1], -1)
        return np.matmul(phases.reshape(-1, phases.shape[-1]), components, out=flat).reshape(shape)

    @functools.cached_property
    def norm_bound(self) -> float:
        """A bound on ``||R(t)||_1`` at every ``t``: the 1-norm of the entrywise
        ``|C_0| + sum_{nu > 0} hypot(C_nu, S_nu)``, since ``|c cos + s sin| <= hypot(c, s)``."""
        f = self.frequencies.size
        pairs = np.hypot(self.matrices[1:f], self.matrices[f:])
        return float(np.max(np.abs(self.matrices[0]).sum(axis=0) + pairs.sum(axis=(0, 1))))


@dataclass(frozen=True)
class LindbladTerm:
    """One rated jump channel, contributing

        rate * (O rho O^dag - (O^dag O rho + rho O^dag O) / 2)

    to ``drho/dt``, so that ``rate`` is the population transfer rate of the
    pumped transition.  ``operator`` is a static matrix or, for
    frame-transformed channels, a :class:`Harmonic`."""

    rate: float
    operator: object

    def __post_init__(self):
        _check_operator(self.operator, "jump operator")
        if self.rate < 0:
            raise ValueError(f"negative rate {self.rate}")

    def operator_at(self, t: float) -> np.ndarray:
        return _as_harmonic(self.operator)(t)

    def superoperator(self) -> Harmonic:
        """``D[O(t)]`` as a harmonic sum of ``dim^2 x dim^2`` superoperators: the
        pair ``(A_k, A_l)`` of components enters at ``nu_k - nu_l``, added into
        one matrix per merged frequency, the pairs of one ``A_k`` built at once."""
        op = _as_harmonic(self.operator)
        nus = np.subtract.outer(op.frequencies, op.frequencies)
        # merged as a harmonic, the unit vectors e_kl mark the pairs of each frequency
        groups = Harmonic(nus.ravel(), np.eye(nus.size)[:, None, :])
        slots = np.argmax(np.abs(groups.matrices[:, 0, :]), axis=0).reshape(nus.shape)
        d = op.matrices.shape[-1]
        out = np.zeros((groups.frequencies.size, d * d, d * d), dtype=complex)
        for k, a in enumerate(op.matrices):
            for slot, pair in zip(slots[k], _pair_dissipator(a, op.matrices, 0.5 * self.rate)):
                out[slot] += pair
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

    def hamiltonian_at(self, t: float) -> np.ndarray | None:
        return None if self.hamiltonian is None else _as_harmonic(self.hamiltonian)(t)

    @functools.cached_property
    def liouvillian(self) -> Harmonic:
        """The generator ``L(t) = sum_k exp(-i nu_k t) L_k``, with
        ``vec(drho/dt) = L(t) vec(rho)``; assembled on first use and kept.
        The Hamiltonian's shape and Hermiticity are checked here."""
        d = self.dim
        eye = np.eye(d)
        parts = [(np.zeros(1), np.zeros((1, d * d, d * d), dtype=complex))]
        if self.hamiltonian is not None:
            h = _as_harmonic(self.hamiltonian)
            if h.matrices.shape[1:] != (d, d):
                raise DimensionMismatchError(f"hamiltonian shape {h.matrices.shape} != dim {d}")
            # Hermitian at every t exactly when the component at -nu is the
            # adjoint of the one at nu; a static H is the nu = 0 case
            mirrored = np.concatenate([h.frequencies, -h.frequencies])
            gap = Harmonic(mirrored, np.concatenate([h.matrices, -qmath.dag(h.matrices)]))
            defect = float(np.abs(gap.matrices).max())
            if defect > max(1e-10, 1e-12 * float(np.abs(h.matrices).max())):
                raise NotHermitianError(defect, "hamiltonian is not Hermitian: H(-nu) != H(nu)^dag")
            commutator = qmath.kron(eye, h.matrices) - qmath.kron(h.matrices.mT, eye)
            parts.append((h.frequencies, -1j * commutator))
        dissipators = [term.superoperator() for term in self.terms if term.rate != 0.0]
        parts += [(dissipator.frequencies, dissipator.matrices) for dissipator in dissipators]
        if self.extra_generator is not None:
            parts.append((np.zeros(1), self.extra_generator[None]))
        nus, mats = zip(*parts)
        return Harmonic(np.concatenate(nus), np.concatenate(mats))

    @functools.cached_property
    def _real_liouvillian(self) -> _RealGenerator:
        """The Liouvillian in real coordinates, assembled on first use and kept.

        With ``R_nu = B L_nu B^dag``, ``B L(t) B^dag`` is real at every t
        exactly when ``R_0`` is real and ``R_-nu = conj(R_nu)``; that pairing
        is checked here.  Then ``C_0 = R_0``, and ``C_nu + i S_nu`` is the
        pair's sum ``R_nu + conj(R_-nu)``."""
        L = self.liouvillian
        basis = _hermitian_basis(self.dim)
        r = basis @ L.matrices @ basis.conj().T
        # merged at |nu|, each R_nu meets conj(R_-nu), which must equal it
        below = (L.frequencies < 0.0)[:, None, None]
        r = np.where(below, r.conj(), r)
        gap = Harmonic(np.abs(L.frequencies), np.where(below, -r, r))
        gap.matrices[0] = gap.matrices[0].imag  # the smallest |nu| is 0: R_0 must be real
        defect = float(np.abs(gap.matrices).max())
        if defect > max(1e-10, 1e-12 * float(np.abs(L.matrices).max())):
            raise NotHermitianError(
                defect, "the Liouvillian does not preserve Hermiticity: R(-nu) != conj(R(nu))"
            )
        pairs = Harmonic(np.abs(L.frequencies), r)
        # a pair sum that cancels leaves entries at most eps max|R|, the rounding of R(t)'s
        # largest entries, which such a frequency cannot move: it is dropped, nu = 0 kept
        sizes = np.abs(pairs.matrices).max(axis=(1, 2))
        live = (sizes > np.finfo(float).eps * sizes.max()) | (pairs.frequencies == 0.0)
        kept = pairs.matrices[live]
        return _RealGenerator(basis, pairs.frequencies[live], np.concatenate([kept.real, kept[1:].imag]))


@dataclass
class Trajectory:
    """States at ``times``, density matrices ``(N, d, d)`` from :func:`evolve`
    or kets ``(N, d)`` from :func:`frames.schroedinger_evolve`, with the
    integrator's record: ``method`` is ``"expm"`` (exact, nothing refined),
    ``"magnus-4"`` or ``"gauss-legendre-4"``; ``achieved`` is the estimate
    of the pass accepted against ``tol`` after ``refinements`` doublings,
    whose steps per interval ``substeps`` counts; ``period`` is the span that
    ``whole_periods`` whole spans were advanced by, None when none was."""

    times: np.ndarray
    states: np.ndarray
    substeps: np.ndarray | None = None
    refinements: int = 0
    achieved: float = 0.0
    tol: float = 0.0
    method: str = "expm"
    period: float | None = None
    whole_periods: int = 0

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
    ``(A, B)`` pair term of a dissipator, for a matrix ``A`` and a matrix or a
    stack of them ``B``; ``A = B = O`` gives ``D[O]``."""
    eye = np.eye(a.shape[-1])
    bda = qmath.dag(b) @ a
    return scale * (2.0 * qmath.kron(b.conj(), a) - qmath.kron(eye, bda) - qmath.kron(bda.mT, eye))


def liouvillian_matrix(me: MasterEquation, t: float = 0.0) -> np.ndarray:
    """Matrix ``L`` with ``vec(drho/dt) = L vec(rho)`` at time ``t``."""
    return me.liouvillian(t)


def apply_generator(me: MasterEquation, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Right-hand side ``drho/dt``: the assembled ``L(t)`` applied to ``vec(rho)``."""
    return unvec(me.liouvillian(t) @ vec(rho), me.dim)


#: the times of a Magnus step's three phase rows, as fractions of the step: its
#: midpoint, where the integral of R is taken, then the two Gauss-Legendre
#: nodes ``c = 1/2 -+ sqrt(3)/6`` of its commutator
_STEP_NODES = 0.5 + np.array([0.0, -1.0, 1.0]) * math.sqrt(3.0) / 6.0

#: bytes of the buffers one block of steps is formed in, which a pass allocates
#: once and every block reuses: 64 Gauss-Legendre steps of
#: :func:`frames.schroedinger_evolve` at d = 6 (each step's stage matrices,
#: stage system and step map, 16 d^2 (s + s^2 + 1) bytes at s = 4 stages; an H
#: split p | q uses 16 (s d^2 + s^2 (2 p q + q^2) + d^2) of them, 9792 of 12096
#: at 3 | 3), or 17 Magnus steps of the 36 x 36 real full-model generator at its
#: 10 live frequencies
_BLOCK_BYTES = 774_144


def _block_rows(step_bytes: int, steps: int) -> int:
    """Steps per block: as many as ``_BLOCK_BYTES`` holds, at least one, at most ``steps``."""
    return min(steps, max(1, _BLOCK_BYTES // step_bytes))


def _step_layout(points: np.ndarray, substeps: np.ndarray):
    """A pass's steps laid out flat, the interval before point ``i + 1`` cut
    into ``substeps[i]`` equal steps: each step's start and width, and the
    index of each interval's last step."""
    widths = np.repeat(np.diff(points) / substeps, substeps)
    first = np.cumsum(substeps) - substeps  # each interval's first step
    within = np.arange(widths.size) - np.repeat(first, substeps)
    return np.repeat(points[:-1], substeps) + within * widths, widths, first + substeps - 1

#: Taylor degrees ``m`` and their double-precision bounds ``theta_m``: the
#: degree-``m`` Taylor polynomial of ``exp(A)`` has a backward error of at
#: most ``2^-53 ||A||`` when ``||A||_1 <= theta_m`` (Al-Mohy & Higham,
#: SIAM J. Sci. Comput. 33, 488 (2011), and the tables it draws on)
_TAYLOR_DEGREES = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_TAYLOR_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1,
    2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44,
    1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54,
    4.7, 6.0, 7.2, 8.5, 9.9,
])
#: ``1/p!``: the Taylor weights of :func:`_exp_action`, reversed from degree ``m``
_INVERSE_FACTORIALS = np.array([1.0 / math.factorial(p) for p in range(_TAYLOR_DEGREES[-1] + 1)])


def _taylor_top(norm) -> int:
    """The Taylor degree that a 1-norm (or a bound on it) of ``norm`` takes,
    degree 55 for one past the table: how many rows the series needs."""
    return int(_TAYLOR_DEGREES[min(np.searchsorted(_TAYLOR_THETA, norm), _TAYLOR_DEGREES.size - 1)])


def _exp_action(omegas: np.ndarray, v: np.ndarray, norms=None, terms=None, ends=(), out=()):
    """``expm(Omega_{n-1}) ... expm(Omega_0) v`` for a stack of exponents; ``v``
    is a vector or a block of columns, real or complex, and is not changed.
    The state after step ``ends[k]`` is also written into ``out[k]``.  An
    exponent whose 1-norm (or the bound on it in ``norms``, measured here when
    not given) is at most ``theta_55`` is applied by its Taylor series of the
    least degree ``m`` whose ``theta_m`` covers it: the powers ``Omega^p v``
    from ``p = m`` down to 0, one bound ``Omega.dot`` per term into the rows of
    ``terms`` (a stack of at least ``m + 1`` arrays shaped as ``v``, allocated
    here when not given), summed weighted by ``1/p!``, smallest first, by one
    matrix product written into the carried operand.  What depends on ``m``
    alone (the weights, the stacked rows, the top row and the pairs of rows
    each product reads and writes) is resolved once per degree, so a step
    allocates nothing.  Every term keeps the trace and Hermiticity that
    ``Omega`` keeps.  A larger exponent, which the series would cut into
    ``||Omega||_1 / theta_55`` segments of 55 products each, is formed by
    :func:`_expm` (its scaling and squaring takes about ``log2 ||Omega||_1``
    products) and applied by one product; :func:`_expm` takes its own series
    from this kernel, on the identity."""
    if norms is None:
        norms = np.abs(omegas).sum(axis=-2).max(axis=-1)
    index = np.searchsorted(_TAYLOR_THETA, norms).tolist()
    v = np.array(v, dtype=np.result_type(omegas, v))  # the carried operand
    if terms is None:
        terms = np.empty((_taylor_top(max(norms)) + 1, *v.shape), dtype=v.dtype)
    flat, rows, plans = v.reshape(-1), list(terms), {}
    for i in set(index) - {_TAYLOR_DEGREES.size}:
        m = int(_TAYLOR_DEGREES[i])
        pairs = list(zip(rows[m:0:-1], rows[m - 1 :: -1]))  # Omega . rows[p + 1] -> rows[p]
        plans[i] = _INVERSE_FACTORIALS[m::-1], terms[: m + 1].reshape(m + 1, -1), rows[m], pairs
    saves = dict(zip(ends, out))
    for step, (omega, i) in enumerate(zip(omegas, index)):
        if i == _TAYLOR_DEGREES.size:
            v[...] = _expm(omega) @ v
        else:
            weights, stack, top, pairs = plans[i]
            top[...] = v
            product = omega.dot
            for row, power in pairs:
                product(row, power)
            np.matmul(weights, stack, out=flat)
        if step in saves:
            saves[step][...] = v
    return v


def _expm(a: np.ndarray) -> np.ndarray:
    """``expm(a)``: the series of :func:`_exp_action` on the identity for
    ``a / 2^j``, squared ``j`` times, with the least ``j`` that brings
    ``||a||_1 / 2^j`` below 4.  Of the bounds 1, 2, 4 and 8, 4 came closest
    to 40-digit references on 24 random real Liouvillians at 1-norms 10 and
    1000 (worst relative errors 4.3e-16, 3.1e-14) and 8 at 300 (1.1e-14
    against 1.5e-14).  ``||a||_1`` must be below ``2^55``: ``j >= 54``
    squarings would amplify the series' rounding past every digit, and a
    larger or non-finite one raises :class:`IntegrationDivergenceError`."""
    norm = float(np.abs(a).sum(axis=0).max())
    _check_exponent_norm(norm)
    j = max(0, math.frexp(norm)[1] - 2)
    x = _exp_action(a[None] / 2.0**j, np.eye(a.shape[0]), [norm / 2.0**j])
    for _ in range(j):
        x = x @ x
    return x


def _check_exponent_norm(norm: float) -> None:
    """Raise :class:`IntegrationDivergenceError` unless ``norm``, a step
    exponent's 1-norm or a bound on it, is finite and below ``2^55``: checked
    before the exponent is formed, which may overflow.  Past it, ``_expm``,
    which forms every exponent beyond the Taylor table, would square away
    every digit."""
    if not norm < 2.0**55:
        message = f"a step's exponent has 1-norm up to {norm:.6g}"
        raise IntegrationDivergenceError(norm, 2.0**55, message)


def _magnus_exponents(R: _RealGenerator, starts, widths, buffer):
    """The fourth-order Magnus exponents ``Omega = int R + [B_2, B_1] / sqrt 3``
    of the steps ``[t, t + w]``, one per start ``t`` and width ``w``.  The
    first term is the exact integral of ``R`` over the step,
    ``w sum_nu sinc(nu w / 2) (cos(nu m) C_nu + sin(nu m) S_nu)`` at its
    midpoint ``m``, so a harmonic of any frequency enters it without error;
    ``B_i = (w/2) R(t + c_i w)`` on the two Gauss nodes.  The step is exact
    when the harmonics commute and of fourth order otherwise (Iserles, BIT 42,
    561 (2002); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  The
    exponents are formed in the flat ``buffer`` of at least four matrices per
    step: the integral, ``B_1 / sqrt 3`` and ``B_2`` by one product of three
    phase rows per step (``_STEP_NODES``), the width and the factors folded
    into each row's per-frequency weights, then the commutator's two
    products, each added into the integral from one contiguous stack; the
    returned exponents are the first."""
    k, n = starts.size, R.matrices.shape[-1]
    integral, b1, b2, product = buffer[: 4 * k * n * n].reshape(4, k, n, n)
    weights = np.empty((3, k, R.frequencies.size))
    weights[...] = np.multiply.outer([1.0, 0.5 / math.sqrt(3.0), 0.5], widths)[..., None]  # at nu = 0
    x = np.multiply.outer(widths / (2.0 * math.pi), R.frequencies[1:])
    x *= math.pi  # nu w / 2, rounded as np.sinc rounds it
    weights[0, :, 1:] *= np.sin(x) / x  # w sinc(nu w / 2)
    R(starts + np.multiply.outer(_STEP_NODES, widths), weights, out=buffer[: 3 * k * n * n])
    integral += np.matmul(b2, b1, out=product)
    integral -= np.matmul(b1, b2, out=product)
    return integral


def _magnus_pass(R: _RealGenerator, points, substeps, x) -> np.ndarray:
    """``x`` at every point, carried from ``points[0]`` by Magnus steps, the
    interval before point ``i + 1`` in ``substeps[i]`` of them; ``x`` is a
    vector or a block of columns.  The steps run in blocks across interval
    ends, each block's exponents formed in one buffer that the pass allocates
    once (``_BLOCK_BYTES``), and applied by one :func:`_exp_action` call,
    which writes the states at the interval ends inside the block into their
    rows of the result; its Taylor terms are rows of one buffer sized to the
    widest step's degree.  A step of width ``h`` takes the Taylor degree that
    the bound ``h ||R|| + (sqrt(3)/6) (h ||R||)^2`` on its exponent's 1-norm
    sets, with ``||R||`` the :attr:`_RealGenerator.norm_bound` (the integral
    term is at most ``h ||R||``, since ``|sinc| <= 1``, and the commutator
    term at most the rest); the widest step's bound
    is checked before any exponent is formed, and a step whose bound passes
    the Taylor table takes its measured 1-norm instead, so that a loose
    bound forms no exponential."""

    def bound(hr):  # at least ||Omega||_1 for hr = h ||R||, by the triangle inequality
        return hr + math.sqrt(3.0) / 6.0 * hr * hr

    starts, widths, last = _step_layout(points, substeps)
    widest = bound(float(np.max(widths)) * R.norm_bound)
    _check_exponent_norm(widest)
    norms = bound(widths * R.norm_bound)  # each step's, for every block at once
    n = R.matrices.shape[-1]
    # per step: the four n x n matrices of the buffer, R's phase arrays (the
    # times by each of the F frequencies, their cosines, sines and both joined,
    # on three rows: under 15 F floats), the rows' weights (3 F) and n floats,
    # which cover its bound and times
    rows = _block_rows(8 * (4 * n * n + 18 * R.frequencies.size + n), widths.size)
    buffer = np.empty(4 * rows * n * n)
    terms = np.empty((_taylor_top(widest) + 1, *x.shape))
    out = np.empty((points.size, *x.shape))
    out[0] = x
    edges = [*range(0, widths.size, rows), widths.size]
    closing = np.searchsorted(last, edges).tolist()  # the intervals ending in each block
    for j, a, z in zip(edges, closing, closing[1:]):
        omegas = _magnus_exponents(R, starts[j : j + rows], widths[j : j + rows], buffer)
        block = norms[j : j + rows]
        if widest > _TAYLOR_THETA[-1]:  # a step is formed only if its measured norm passes the table
            for i in np.flatnonzero(block > _TAYLOR_THETA[-1]).tolist():
                block[i] = np.linalg.norm(omegas[i], 1)
        x = _exp_action(omegas, x, block, terms, (last[a:z] - j).tolist(), out[a + 1 : z + 1])
    return out


def _split(h: Harmonic, times: np.ndarray):
    """The span ``S`` a pass integrates over, as the points its steps end at,
    and each time as ``n S + r``.  ``S`` is ``h``'s period when that is
    shorter than the last time, else the last time; each ``r`` lies in
    ``(0, S]`` (``r = 0`` at the start), and a span's end belongs to that
    span, so without a shorter period ``n = 0``.  Returns the whole counts
    ``n``, the sorted distinct points ``0, ..., S`` (every ``r`` and ``S``)
    and the index of each ``r``, then of ``S``, among them."""
    horizon = times[-1]
    if horizon == 0.0:
        raise ValueError("the time grid spans no time")
    period = h.period
    span = period if period and period < horizon else horizon
    whole, rest = np.divmod(times, span)
    ends = (rest == 0.0) & (whole > 0)
    whole[ends] -= 1
    rest[ends] = span
    points, where = np.unique(np.append(rest, span), return_inverse=True)
    return _counts(whole), points, where


def _whole_spans(span_map: np.ndarray, whole: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """``span_map^n x0`` for each count ``n`` in ``whole``, stacked: the
    powers are taken only between the sorted distinct counts, so memory and
    time grow with their number and the log of the gaps; a gap of one is the
    one product that a per-span advance makes."""
    counts, which = np.unique(whole, return_inverse=True)
    out = np.empty((counts.size, *x0.shape), dtype=np.result_type(span_map, x0))
    x, done = x0, 0
    for i, n in enumerate(counts.tolist()):
        if n > done:
            x = np.linalg.matrix_power(span_map, n - done) @ x
        out[i], done = x, n
    return out[which]


def _span_states(run, whole, where, x0, powers=_whole_spans) -> np.ndarray:
    """The state at each time ``n S + r`` of :func:`_split`, stacked, from
    ``run(x)``, which carries an operand ``x`` through the span's points.
    Without a whole span in the grid, ``run`` carries ``x0`` itself; with one,
    it carries the identity, which gives the maps ``M(r)``, and each state is
    ``M(r) M(S)^n x0``, the ``M(S)^n x0`` from ``powers(M(S), whole, x0)``
    (:func:`_whole_spans` unless a caller takes them its own way)."""
    if whole[-1] == 0:
        return run(x0)[where[:-1]]
    maps = run(np.eye(x0.size, dtype=x0.dtype))
    return np.einsum("nij,nj->ni", maps[where[:-1]], powers(maps[-1], whole, x0))


#: the largest defect of a span map's trace row that counts as rounding; the
#: 1e-9 trace-drift check still sees every larger one
_TRACE_ROUNDING = 1e-12


def _trace_exact_powers(span_map: np.ndarray, whole: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """:func:`_whole_spans` of a span map of ``d x d`` density matrices in real
    coordinates, taken in the coordinates ``y = P x`` whose first is the
    trace: ``P`` is the identity with row 0 set to the trace functional (the
    sum of the first ``d`` coordinates).  Where row 0 of ``P M(S) P^-1``
    differs from ``e_0`` by rounding alone, it is set to ``e_0``, so every
    power keeps ``y_0`` exactly and ``n`` spans do not multiply that rounding
    by ``n``; the powers map back by ``P^-1``."""
    n, d = x0.size, round(math.sqrt(x0.size))
    p, p_inv, e0 = np.eye(n), np.eye(n), np.eye(n)[0]
    p[0, :d], p_inv[0, 1:d] = 1.0, -1.0
    m = p @ span_map @ p_inv
    if np.max(np.abs(m[0] - e0)) <= _TRACE_ROUNDING:
        m[0] = e0
    return _whole_spans(m, whole, p @ x0) @ p_inv.T


def _integrate(me: MasterEquation, rho0, times, split=None, substeps=None) -> np.ndarray:
    """States at ``times`` as an ``(N, d, d)`` stack, integrated in the real
    coordinates of ``me._real_liouvillian``: without a ``split`` by the exact
    maps ``expm(dt R_0)`` of :func:`_expm`, else (even if every harmonic cancels
    in ``R``) by :func:`_magnus_pass` over the span of ``split`` (what
    :func:`_split` returns for ``times``), the interval before its point ``i + 1``
    in ``substeps[i]`` steps, assembled by :func:`_span_states` with the span
    map's powers taken where the trace is a coordinate (:func:`_trace_exact_powers`).
    Both map back by ``B^dag``, and the first state is ``rho0`` itself."""
    R, d = me._real_liouvillian, me.dim
    # the Hermitian part of rho0: evolve admits an anti-Hermitian one below 1e-10
    x0 = (R.basis @ vec(rho0)).real
    if split is None:
        dts = times[1:] - times[:-1]
        # interval lengths equal up to rounding (a linspace grid) share one map, which
        # spans their mean length so that no run's time error grows along it
        keys = np.rint(dts / times[-1] * 1e12)
        _, which = np.unique(keys, return_inverse=True)
        lengths = np.bincount(which, weights=dts) / np.bincount(which)
        _check_exponent_norm(float(lengths.max()) * float(np.abs(R.matrices[0]).sum(axis=0).max()))
        maps = [_expm(dt * R.matrices[0]) for dt in lengths.tolist()]
        xs = np.empty((times.size, x0.size))
        xs[0] = x0
        starts = [0, *(np.flatnonzero(which[1:] != which[:-1]) + 1).tolist()]
        for start, stop in zip(starts, [*starts[1:], dts.size]):
            powers = [maps[which[start]]]  # M, ..., M^b with b = ceil(sqrt(run length))
            while len(powers) ** 2 < stop - start:
                powers.append(powers[0] @ powers[-1])
            b, powers = len(powers), np.concatenate(powers)
            for k in range(start, stop, b):
                xs[k + 1 : min(k + b, stop) + 1] = (powers @ xs[k]).reshape(b, -1)[: stop - k]
    else:
        whole, points, where = split
        run = functools.partial(_magnus_pass, R, points, substeps)
        xs = _span_states(run, whole, where, x0, _trace_exact_powers)
    out = xs @ R.basis.conj()  # one vec(rho) per row
    out[0] = vec(rho0)
    # a row vec(rho) read in C order is rho transposed
    return out.reshape(-1, d, d).transpose(0, 2, 1)


#: ``h ||R||`` of a first Magnus step where the generator's norm, not its
#: fastest frequency, sets the first count of :func:`evolve`
_FIRST_STEP_NORM = 0.25

#: most doublings of the step counts before an integration gives up
_MAX_REFINEMENTS = 12


def _refine(h: Harmonic, times, rate, run, estimate, tol, method):
    """The step-doubling driver of both integrators, over the span of ``h``
    that :func:`_split` cuts from ``times``: each interval ``dt`` between its
    points starts at ``max(1, ceil(rate dt))`` steps, and ``run(split,
    counts)`` runs once, then again with every count doubled until
    ``estimate(fine, coarse)`` is at most ``tol``, at most
    ``_MAX_REFINEMENTS`` times.  Returns the last pass's :class:`Trajectory`,
    its states and record.  Raises :class:`IntegrationDivergenceError` when
    that estimate exceeds ``tol`` or a first count has no int; a last pass
    that fails the caller's own check is the caller's to report."""
    split = whole, points, _ = _split(h, times)
    counts = _counts(np.maximum(1.0, np.ceil(rate * np.diff(points))))
    coarse = run(split, counts)
    for refinements in range(1, _MAX_REFINEMENTS + 1):
        counts = counts * 2
        fine = run(split, counts)
        achieved = estimate(fine, coarse)
        if achieved <= tol:
            break
        coarse = fine
    if not achieved <= tol:
        raise IntegrationDivergenceError(achieved, tol)
    period = float(points[-1]) if whole[-1] > 0 else None
    return Trajectory(times, fine, counts, refinements, achieved, tol, method, period, int(whole[-1]))


def _counts(x) -> np.ndarray:
    """The float counts ``x``, of steps or of whole periods, as ints.  A count
    that is not finite, or not below ``2**63``, has no int: it raises
    :class:`IntegrationDivergenceError` before the cast."""
    x = np.asarray(x, dtype=float)
    out_of_range = ~(np.abs(x) < 2.0**63)  # NaN included
    if np.any(out_of_range):
        count = float(x[out_of_range][0])
        message = f"a count of {count:.6g} steps or periods is not a finite number below 2**63"
        raise IntegrationDivergenceError(count, 2.0**63, message)
    return x.astype(int)


def _time_grid(t_grid) -> np.ndarray:
    """``t_grid`` as floats, checked to start at 0 and increase strictly."""
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("the time grid must be a non-empty 1-d array of times")
    if abs(times[0]) > 0.0:
        raise ValueError(f"the time grid must start at 0, got {times[0]}")
    if (times[1:] <= times[:-1]).any():
        raise ValueError("the time grid must be strictly increasing")
    return times


def evolve(me: MasterEquation, rho0: np.ndarray, t_grid, *, tol: float = 1e-8) -> Trajectory:
    """Integrate the master equation over ``t_grid`` in the real coordinates
    of its Liouvillian (:class:`_RealGenerator`): a static generator by exact
    maps ``expm(dt R_0)`` in one pass (``tol`` is only recorded), a
    time-dependent one by fourth-order Magnus steps whose first term is the
    exact integral of ``L`` over the step (:func:`_magnus_exponents`); every
    exponential is the one Taylor kernel, exact to rounding.  Every state
    after ``rho0`` maps back from real coordinates, so it is exactly Hermitian.

    A time-dependent generator is integrated over one span ``S``: its period
    when the grid is longer than that, else the whole grid.  Without a whole
    period the state is carried through the output times.  With one, the
    identity is carried through the points ``t mod S`` of the span, which
    gives the maps ``M(r)``, and each state is ``M(t mod S) M(S)^n x0`` with
    ``n = floor(t / S)`` (Floquet theory; Grifoni & Haenggi, Phys. Rep. 304,
    229 (1998)); the record's ``period`` and ``whole_periods`` say so.
    ``substeps[i]`` counts the steps between consecutive points of the span:
    the output times, or the sorted distinct ``t mod S`` and ``S``.  Such an
    interval ``dt`` starts at
    ``max(1, ceil(dt min(max|nu_k| / 2, ||R|| / theta)))`` substeps,
    ``theta = 1/4``: each spans about 2 rad of the fastest frequency ``nu_k``
    of ``L`` or ``h ||R|| <= theta`` (``||R||`` the
    :attr:`_RealGenerator.norm_bound`), whichever asks for fewer steps.  A
    step integrates the harmonics exactly in its first term, so a generator
    weak against its fastest frequency needs no step per 2 rad of it: the
    full model in the dressed frame, whose fast harmonics come from the weak
    frame-rotated decay jump alone, takes the norm's count.
    :func:`_refine` doubles the counts until halving the step changes the
    final state by at most ``tol`` (Frobenius).  The accepted trajectory, a
    static generator's one pass included, must then keep the trace to 1e-9:
    the whole-period powers keep it exactly (:func:`_trace_exact_powers`),
    so a larger drift is the generator's own, and no doubling cures it.

    Raises
    ------
    IntegrationDivergenceError
        If the refinement fails to converge (carrying the last final-state
        difference), if the trace drifts by more than 1e-9 (carrying the
        drift), if a first substep count or a count of whole periods is too
        large to be an integer, or if a step's exponent may have a 1-norm of
        ``2^55`` or more.
    NotHermitianError
        If the generator, static or not, does not preserve Hermiticity.
    """
    times = _time_grid(t_grid)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (me.dim, me.dim):
        raise DimensionMismatchError(f"rho0 shape {rho0.shape} != dim {me.dim}")
    trace0 = np.trace(rho0)
    if abs(trace0 - 1.0) > 1e-9 or qmath.hermitian_defect(rho0) > 1e-10:
        raise ValueError(f"rho0 is not a valid density matrix: {qmath.density_matrix_defects(rho0)}")
    fastest = float(np.abs(me.liouvillian.frequencies).max())
    method = "magnus-4" if fastest else "expm"
    if times.size == 1:
        return Trajectory(times, rho0[None].copy(), tol=tol, method=method)

    if not fastest:  # exact maps: one pass, nothing to refine
        traj = Trajectory(times, _integrate(me, rho0, times), np.ones(times.size - 1, int), tol=tol)
    else:
        traj = _refine(
            me.liouvillian,
            times,
            min(fastest / 2.0, me._real_liouvillian.norm_bound / _FIRST_STEP_NORM),
            lambda split, counts: _integrate(me, rho0, times, split, counts),
            lambda fine, coarse: float(np.linalg.norm(fine[-1] - coarse[-1])),
            tol,
            method,
        )
    trace_drift = float(np.abs(np.einsum("nii->n", traj.states) - trace0).max())
    if not trace_drift <= 1e-9:
        raise IntegrationDivergenceError(trace_drift, 1e-9, f"the trace drifted by {trace_drift:.3e}")
    return traj


def steady_state(me: MasterEquation) -> tuple[np.ndarray, SteadyStateInfo]:
    """Trace-one null vector of the Liouvillian, as ``(rho, info)``: that of
    the real ``R_0`` (:class:`_RealGenerator`), from one SVD.  ``R_0`` is
    normalized by its largest entry first, so the null bound 1e-10 on its
    singular values and the residual bound 1e-9 are relative to the rate
    scale of the problem.  A multi-dimensional null space is flagged as
    degenerate and resolved by projecting the maximally mixed state onto it.
    A real null vector maps back to an exactly Hermitian ``rho``.

    Raises
    ------
    SteadyStateError
        If no trace-class null vector exists or the residual target
        cannot be met.
    NotHermitianError
        If the generator does not preserve Hermiticity.
    """
    if me.liouvillian.frequencies.any():
        raise ValueError("steady_state requires a time-independent master equation")
    d, R = me.dim, me._real_liouvillian
    r = R.matrices[0] / max(1.0, float(np.max(np.abs(R.matrices[0]))))
    _, s, vt = np.linalg.svd(r)
    null = vt[s <= 1e-10]
    if not len(null):
        raise SteadyStateError(f"no null singular value found (smallest = {s[-1]:.3e})")
    trace = np.repeat([1.0, 0.0], [d, d * d - d])  # tr rho: the |i><i| coordinates
    x = null[0] if len(null) == 1 else (null @ (trace / d)) @ null
    if abs(trace @ x) < 1e-12:
        raise SteadyStateError("null space contains no trace-class state")
    x = x / (trace @ x)
    res = float(np.linalg.norm(r @ x))
    if res > 1e-9:
        raise SteadyStateError(f"steady-state residual {res:.3e} > 1e-9, relative to the rate scale")
    info = SteadyStateInfo(len(null), len(null) > 1, res)
    return (x @ R.basis.conj()).reshape(d, d).T, info
