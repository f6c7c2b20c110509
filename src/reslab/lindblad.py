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

Integration is exponential, and every exponential is a truncated Taylor
series on numpy, its degree set by one table of double-precision bounds.  A
static Liouvillian's interval map ``M = expm(dt L)`` is exact, built once
per interval length (lengths equal up to rounding count as one, and the map
spans their mean) from the series of ``dt L / 2^j`` in Paterson and
Stockmeyer's form, squared ``j`` times (:func:`_expm`); a run of ``n``
equal intervals takes one pass in blocks by the powers ``[M, ..., M^b]``,
``b = ceil(sqrt n)``.  A
time-dependent one cuts each output interval into ``k`` equal substeps,
each ``[t, t + h]`` applying ``expm(Omega)`` with the fourth-order Magnus exponent

    Omega = h/2 (A_1 + A_2) + (sqrt(3)/12) h^2 [A_2, A_1],
    A_i = L(t + c_i h),  c = 1/2 -+ sqrt(3)/6 (the Gauss-Legendre nodes).

The static part of ``L`` is thereby handled exactly, so the step is set
only by the oscillating harmonics: the first count spans at most about
2 rad of the fastest one, and it is doubled until halving the step moves
the final state by at most ``tol`` (the step-doubling loop :func:`_refine`,
which :func:`frames.schroedinger_evolve` shares).  The steps run in the
real coordinates ``x = B vec(rho)`` of an orthonormal Hermitian operator
basis (the coherence vector), where a Hermiticity-preserving ``L`` is a
real matrix ``R(t) = R_0 + sum_{nu > 0} cos(nu t) C_nu + sin(nu t) S_nu``,
built once per master equation; the states map back by ``B^dag`` at the
output times.
``R`` is evaluated once on all the Gauss nodes of an interval, and the
interval's exponents are formed together.  Each ``expm(Omega)`` is applied
to the state, never formed: the Taylor series, one matrix-vector product
per term, its terms summed smallest first, whose degree and number of
segments follow from ``||Omega||_1`` and the double-precision bounds of
Al-Mohy & Higham, so it is exact to rounding.  Every ``A_i`` annihilates the trace
functional and maps Hermitian matrices to Hermitian ones, and so does
their commutator and every Taylor term, so each step keeps trace and
Hermiticity; a real ``x`` is Hermitian by construction.
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


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if dim is None:
        dim = round(math.isqrt(v.size))
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True, eq=False)
class Harmonic:
    """Time-dependent operator ``O(t) = sum_k exp(-i nu_k t) A_k`` with static
    ``A_k``.  Frequencies closer than ``FREQUENCY_RTOL`` times the largest
    ``|nu_k|`` are merged, so the stored ones are distinct and ascending.
    When they are commensurate, ``O`` repeats with :attr:`period`.

    Arrays that need no sorting or merging are stored without a copy, so
    they must not be changed after the harmonic is built."""

    frequencies: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.frequencies, dtype=float)
        mats = np.asarray(self.matrices, dtype=complex)
        if nu.ndim != 1 or nu.size == 0 or mats.shape != (nu.size, *mats.shape[-2:]):
            raise DimensionMismatchError(f"{nu.shape} frequencies, matrices {mats.shape}")
        # the stack is copied only to sort it and to merge it, and only if needed
        if np.any(np.diff(nu) < 0.0):
            order = np.argsort(nu, kind="stable")
            nu, mats = nu[order], mats[order]
        starts = np.flatnonzero(np.diff(nu, prepend=-np.inf) > FREQUENCY_RTOL * np.max(np.abs(nu)))
        if starts.size < nu.size:
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

    def map(self, f) -> "Harmonic":
        """The harmonic ``sum_k exp(-i nu_k t) f(A_k)`` for a linear map ``f``."""
        return Harmonic(self.frequencies, [f(a) for a in self.matrices])


def _as_harmonic(op) -> Harmonic:
    return op if isinstance(op, Harmonic) else Harmonic([0.0], [op])


def _check_operator(op, what: str) -> None:
    if callable(op) and not isinstance(op, Harmonic):
        raise TypeError(f"{what} must be a static matrix or a Harmonic, got {type(op).__name__}")


def _hermitian_basis(dim: int) -> np.ndarray:
    """The unitary ``B`` whose rows are ``vec(E_a)^dag`` for the orthonormal
    Hermitian basis ``|i><i|``, ``(|i><j| + |j><i|)/sqrt 2`` and
    ``i (|i><j| - |j><i|)/sqrt 2`` (``i < j``): ``B vec(rho)`` is real for
    every Hermitian ``rho``."""
    eye = np.eye(dim * dim)
    i, j = np.triu_indices(dim, 1)
    ij, ji = eye[i + dim * j], eye[j + dim * i]  # vec(|i><j|), vec(|j><i|)
    root2 = math.sqrt(2.0)
    return np.concatenate([eye[:: dim + 1], (ij + ji) / root2, -1j * (ij - ji) / root2])


@dataclass(frozen=True, eq=False)
class _RealGenerator:
    """A Hermiticity-preserving generator in the coordinates ``x = B vec(rho)``
    of :func:`_hermitian_basis`: ``R(t) = sum_nu cos(nu t) C_nu + sin(nu t) S_nu``
    over ``nu >= 0``, every ``C_nu`` and ``S_nu`` real."""

    basis: np.ndarray
    frequencies: np.ndarray
    matrices: np.ndarray  # the C_nu, then the S_nu

    def __call__(self, t) -> np.ndarray:
        """``R(t)``; an array of times of shape ``S`` gives the stack ``S + (n, n)``."""
        nt = np.multiply.outer(t, self.frequencies)
        return np.tensordot(np.concatenate([np.cos(nt), np.sin(nt)], -1), self.matrices, axes=1)


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
        one matrix per merged frequency as it is built."""
        op = _as_harmonic(self.operator)
        nus = np.subtract.outer(op.frequencies, op.frequencies)
        # merged as a harmonic, the unit vectors e_kl mark the pairs of each frequency
        groups = Harmonic(nus.ravel(), np.eye(nus.size)[:, None, :])
        slots = np.argmax(np.abs(groups.matrices[:, 0, :]), axis=0).reshape(nus.shape)
        d = op.matrices.shape[-1]
        out = np.zeros((groups.frequencies.size, d * d, d * d), dtype=complex)
        for (k, l), slot in np.ndenumerate(slots):
            out[slot] += _pair_dissipator(op.matrices[k], op.matrices[l], 0.5 * self.rate)
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
        defect = float(np.max(np.abs(gap.matrices)))
        if defect > max(1e-10, 1e-12 * float(np.max(np.abs(L.matrices)))):
            raise NotHermitianError(
                defect, "the Liouvillian does not preserve Hermiticity: R(-nu) != conj(R(nu))"
            )
        pairs = Harmonic(np.abs(L.frequencies), r)
        return _RealGenerator(
            basis, pairs.frequencies, np.concatenate([pairs.matrices.real, pairs.matrices.imag])
        )


@dataclass
class Trajectory:
    """Density matrices at ``times``, one ``(N, d, d)`` array, with integrator
    stats: ``method`` is ``"expm"`` (exact, nothing refined) or ``"magnus-4"``,
    whose ``achieved`` is the last ``|fine - coarse|`` of the final state,
    accepted against ``tol``."""

    times: np.ndarray
    states: np.ndarray
    substeps: np.ndarray | None = None
    refinements: int = 0
    achieved: float = 0.0
    tol: float = 0.0
    method: str = "expm"

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


def liouvillian_matrix(me: MasterEquation, t: float = 0.0) -> np.ndarray:
    """Matrix ``L`` with ``vec(drho/dt) = L vec(rho)`` at time ``t``."""
    return me.liouvillian(t)


def apply_generator(me: MasterEquation, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Right-hand side ``drho/dt``: the assembled ``L(t)`` applied to ``vec(rho)``."""
    return unvec(me.liouvillian(t) @ vec(rho), me.dim)


#: Gauss-Legendre nodes of the two-point Magnus step, as fractions of the step
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0

#: most substeps whose exponents are formed together: an interval with more
#: is taken in blocks, which bounds the memory of one evaluation of ``L``
#: (and of ``H`` and the stage systems of :func:`frames.schroedinger_evolve`)
_MAX_BLOCK = 64

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
#: ``1/p!``: the Taylor weights of :func:`_exp_action` (reversed from degree ``m``) and :func:`_expm`
_INVERSE_FACTORIALS = np.array([1.0 / math.factorial(p) for p in range(_TAYLOR_DEGREES[-1] + 1)])


def _exp_action(omegas: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``expm(Omega_{n-1}) ... expm(Omega_0) v`` for a stack of exponents, each
    applied by its degree-``m`` Taylor series in ``s`` segments; ``v`` is a
    vector or a block of columns, real or complex.  Each segment stacks the
    powers ``(Omega/s)^p v`` from ``p = m`` down to 0, one matrix product per
    term into a preallocated stack, and sums them weighted by ``1/p!``,
    smallest first.  Every term keeps the trace and Hermiticity that
    ``Omega`` keeps."""
    # the least cost m s with ||Omega||_1 / s <= theta_m, for the largest norm
    norm = float(np.max(np.sum(np.abs(omegas), axis=-2)))
    segments = np.maximum(1.0, np.ceil(norm / _TAYLOR_THETA))
    best = int(np.argmin(segments * _TAYLOR_DEGREES))
    m, s = int(_TAYLOR_DEGREES[best]), int(segments[best])
    if s > 1:
        omegas = omegas / s
    weights = _INVERSE_FACTORIALS[m::-1]
    terms = np.empty((m + 1, *v.shape), dtype=np.result_type(omegas, v))
    for omega in omegas:
        for _ in range(s):
            terms[m] = v
            for p in range(m - 1, -1, -1):
                np.dot(omega, terms[p + 1], out=terms[p])
            v = (weights @ terms.reshape(m + 1, -1)).reshape(v.shape)
    return v


def _expm(a: np.ndarray) -> np.ndarray:
    """``expm(a)``: the Taylor series of ``A = a / 2^j`` to the least degree
    ``m`` whose ``theta_m`` covers it, squared ``j`` times, with the least
    ``j`` that brings ``||a||_1 / 2^j`` below 4: of the bounds 1, 2, 4 and 8,
    the one whose maps came closest to 40-digit references at norms up to
    1000.  The series is formed by Paterson and Stockmeyer's scheme: Horner
    form in ``A^q``, ``q = ceil(sqrt(m + 1))``, over the blocks
    ``sum_r A^r / (k q + r)!`` of the powers ``I, ..., A^(q-1)``, each block
    one product of its weights with the stacked powers, and the identity
    added last (so that short steps, applied many times, stay exact to
    rounding).  That takes about ``2 sqrt(m)`` matrix products and holds
    ``q + 1`` powers, where the series term by term takes ``m`` products and
    ``m + 1`` matrices.  A step whose norm is not finite raises
    :class:`IntegrationDivergenceError`."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    if not math.isfinite(norm):
        raise IntegrationDivergenceError(norm, math.inf, f"a step's exponent has 1-norm {norm}")
    j = max(0, int(np.frexp(norm)[1]) - 2)
    a = a / 2.0**j
    m = int(_TAYLOR_DEGREES[np.searchsorted(_TAYLOR_THETA, norm / 2.0**j)])
    q = math.isqrt(m) + 1
    powers = np.empty((q + 1, *a.shape), dtype=a.dtype)
    powers[0], powers[1] = np.eye(a.shape[0]), a
    for p in range(2, q + 1):
        np.dot(powers[p - 1], a, out=powers[p])
    weights = np.pad(_INVERSE_FACTORIALS[: m + 1], (0, -(m + 1) % q)).reshape(-1, q)
    weights[0, 0] = 0.0  # the identity, added last
    flat = powers[:q].reshape(q, -1)
    x = np.zeros_like(a)
    for w in weights[:0:-1]:
        x = powers[q] @ (x + (w @ flat).reshape(a.shape))
    x += (weights[0] @ flat).reshape(a.shape)
    x.flat[:: a.shape[0] + 1] += 1.0
    for _ in range(j):
        x = x @ x
    return x


def _magnus_exponents(L, t: float, h: float, steps: np.ndarray) -> np.ndarray:
    """The fourth-order Magnus exponents of the steps ``[t + j h, t + (j + 1) h]``
    for ``j`` in ``steps``, from one evaluation of ``L`` on their Gauss nodes."""
    a = L((t + h * steps)[:, None] + h * _GAUSS_NODES)
    a1, a2 = a[:, 0], a[:, 1]
    return 0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)


def _integrate(me: MasterEquation, rho0, times, substeps) -> np.ndarray:
    """States at ``times`` as an ``(N, d, d)`` stack, each interval ``i`` taken
    in ``substeps[i]`` Magnus steps, or by exact maps for a static generator."""
    L = me.liouvillian
    out = np.empty((times.size, me.dim**2), dtype=complex)  # one vec(rho) per row
    out[0] = vec(rho0)
    if not np.any(L.frequencies):
        dts = np.diff(times)
        # interval lengths equal up to rounding (a linspace grid) share one map, which
        # spans their mean length so that no run's time error grows along it
        keys = np.rint(dts / times[-1] * 1e12)
        _, which = np.unique(keys, return_inverse=True)
        lengths = np.bincount(which, weights=dts) / np.bincount(which)
        maps = [_expm(dt * L.matrices[0]) for dt in lengths]
        starts = np.flatnonzero(np.diff(which, prepend=-1)).tolist()
        for start, stop in zip(starts, [*starts[1:], dts.size]):
            powers = [maps[which[start]]]  # M, ..., M^b with b = ceil(sqrt(run length))
            while len(powers) ** 2 < stop - start:
                powers.append(powers[0] @ powers[-1])
            b, powers = len(powers), np.concatenate(powers)
            for k in range(start, stop, b):
                out[k + 1 : min(k + b, stop) + 1] = (powers @ out[k]).reshape(b, -1)[: stop - k]
    else:
        R = me._real_liouvillian
        # the Hermitian part of rho0: evolve admits an anti-Hermitian one below 1e-10
        x = (R.basis @ out[0]).real
        xs = []
        for t, dt, k in zip(times, np.diff(times), substeps):
            h = dt / k
            for j in range(0, k, _MAX_BLOCK):
                steps = np.arange(j, min(j + _MAX_BLOCK, k))
                x = _exp_action(_magnus_exponents(R, t, h, steps), x)
            xs.append(x)
        out[1:] = np.array(xs) @ R.basis.conj()
    # a row vec(rho) read in C order is rho transposed
    return out.reshape(-1, me.dim, me.dim).transpose(0, 2, 1)


#: most doublings of the step counts before an integration gives up
_MAX_REFINEMENTS = 12


def _refine(run, counts, estimate, tol, accept=lambda states: True):
    """The step-doubling policy of both integrators: ``run(counts)`` once,
    then again with every count doubled until ``estimate(fine, coarse)`` is
    at most ``tol`` and ``accept(fine)`` holds.  Returns ``(states, counts,
    passes, estimate)`` of the accepted pass; after ``_MAX_REFINEMENTS``
    doublings, raises :class:`IntegrationDivergenceError` with the last
    estimate."""
    coarse = run(counts)
    achieved = math.inf
    for passes in range(2, _MAX_REFINEMENTS + 2):
        counts = counts * 2
        fine = run(counts)
        achieved = estimate(fine, coarse)
        if achieved <= tol and accept(fine):
            return fine, counts, passes, achieved
        coarse = fine
    raise IntegrationDivergenceError(achieved, tol)


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
    if times.size > 1 and np.any(np.diff(times) <= 0.0):
        raise ValueError("the time grid must be strictly increasing")
    return times


def evolve(me: MasterEquation, rho0: np.ndarray, t_grid, *, tol: float = 1e-8) -> Trajectory:
    """Integrate the master equation over ``t_grid``: a static generator by
    exact ``expm`` maps in one pass (``tol`` is only recorded), a time-dependent
    one by fourth-order Magnus steps, applied by a Taylor series exact to rounding.

    A Magnus interval ``dt`` starts at ``max(1, ceil(max|nu_k| dt / 2))``
    substeps, about 2 rad of the fastest frequency ``nu_k`` of ``L`` each;
    :func:`_refine` doubles the counts until halving the step changes the
    final state by at most ``tol`` (Frobenius) and the trace drifts by at
    most 1e-9, which a static generator's one pass must also meet.

    Raises
    ------
    IntegrationDivergenceError
        If the refinement fails to converge or the trace drifts, carrying the
        achieved final-state difference (0 for a static generator), or if a
        first substep count is too large to be an integer.
    """
    times = _time_grid(t_grid)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (me.dim, me.dim):
        raise DimensionMismatchError(f"rho0 shape {rho0.shape} != dim {me.dim}")
    defects = qmath.density_matrix_defects(rho0)
    if defects["trace_deviation"] > 1e-9 or defects["hermiticity_defect"] > 1e-10:
        raise ValueError(f"rho0 is not a valid density matrix: {defects}")
    fastest = float(np.max(np.abs(me.liouvillian.frequencies)))
    method = "magnus-4" if fastest else "expm"
    if times.size == 1:
        return Trajectory(times, rho0[None].copy(), tol=tol, method=method)
    if not fastest:  # exact maps: one pass, nothing to refine
        states = _integrate(me, rho0, times, None)
        if np.max(np.abs(np.trace(states, axis1=1, axis2=2) - np.trace(rho0))) > 1e-9:
            raise IntegrationDivergenceError(0.0, tol, "the trace drifted by more than 1e-9")
        return Trajectory(times, states, np.ones(times.size - 1, dtype=int), tol=tol)
    substeps = _counts(np.maximum(1.0, np.ceil(fastest * np.diff(times) / 2.0)))
    states, substeps, passes, achieved = _refine(
        lambda counts: _integrate(me, rho0, times, counts),
        substeps,
        lambda fine, coarse: float(np.linalg.norm(fine[-1] - coarse[-1])),
        tol,
        lambda fine: np.max(np.abs(np.trace(fine, axis1=1, axis2=2) - np.trace(rho0))) <= 1e-9,
    )
    return Trajectory(times, states, substeps, passes - 1, achieved, tol, method)


def steady_state(me: MasterEquation) -> tuple[np.ndarray, SteadyStateInfo]:
    """Trace-one null vector of the Liouvillian, as ``(rho, info)``.

    The Liouvillian is normalized by its largest entry before the
    eigendecomposition, so the null-eigenvalue bound 1e-10 and the residual
    bound 1e-9 are relative to the rate scale of the problem.  A
    multi-dimensional null space is flagged as degenerate and resolved by
    projecting the maximally mixed state onto it.

    Raises
    ------
    SteadyStateError
        If no trace-class null vector exists or the residual target
        cannot be met.
    """
    if np.any(me.liouvillian.frequencies):
        raise ValueError("steady_state requires a time-independent master equation")
    d = me.dim
    L = liouvillian_matrix(me, 0.0)
    scale = max(1.0, float(np.max(np.abs(L))))
    Ls = L / scale
    w, v = np.linalg.eig(Ls)
    null_mask = np.abs(w) <= 1e-10
    null_dim = int(np.count_nonzero(null_mask))
    if null_dim == 0:
        raise SteadyStateError(
            f"no null eigenvalue found (smallest |eig| = {np.min(np.abs(w)):.3e})"
        )
    q, _ = np.linalg.qr(v[:, null_mask])
    cand = q[:, 0] if null_dim == 1 else q @ (qmath.dag(q) @ vec(np.eye(d) / d))
    rho = unvec(cand, d)
    rho = 0.5 * (rho + qmath.dag(rho))
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise SteadyStateError("null space contains no trace-class state")
    rho = rho / np.real(tr)

    if null_dim == 1:
        # polish with a bordered least-squares solve (L x = 0, tr x = 1)
        A = np.vstack([Ls, vec(np.eye(d))[None, :]])  # the trace functional
        b = np.zeros(d * d + 1, dtype=complex)
        b[-1] = 1.0
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        polished = unvec(x, d)
        polished = 0.5 * (polished + qmath.dag(polished))
        tr = np.trace(polished)
        if abs(tr) > 1e-12:
            rho = polished / np.real(tr)

    res = float(np.linalg.norm(Ls @ vec(rho)))
    if res > 1e-9:
        raise SteadyStateError(
            f"steady-state residual {res:.3e} exceeds 1.0e-09 "
            "(relative to the rate scale)"
        )
    info = SteadyStateInfo(null_dimension=null_dim, degenerate=null_dim > 1, residual=res)
    return rho, info
