"""Rotating frames, the time-averaging oracle, and the Schroedinger
integrator used to validate dressed-frame reductions.

A frame is the unitary family ``R(t) = exp(-i G_1 t) exp(-i G_2 t) ...``,
a product of exponentials of static Hermitian generators.  States map as
``psi -> R(t) psi`` and operators as ``O -> R O R^dag``.  ``R(t)`` itself
and an operator seen from inside the frame, ``R(t)^dag O R(t)``, are
finite Fourier sums and are built exactly as
:class:`~reslab.lindblad.Harmonic` operators, which evaluate on a whole
time grid at once.

The averaging oracle works at the superoperator level: averaging the
jump operator itself would discard the terms that survive in
``O rho O^dag``.  For a harmonic jump the long-time average is exact: the
secular sum keeps the products of equal-frequency components.

The full Hamiltonians the effective ones are checked against are harmonic
sums with commensurate frequencies, so they repeat with a period ``T``
(:attr:`~reslab.lindblad.Harmonic.period`).  :func:`schroedinger_evolve`
integrates the propagator over one period only and advances whole periods
by powers of the one-period map ``U(T)`` (Floquet theory; Grifoni &
Haenggi, Phys. Rep. 304, 229 (1998)).  Its steps are the eighth-order,
unitary 4-stage Gauss-Legendre collocation maps, one small linear solve
per step for this linear equation, formed in batches from one evaluation
of ``H`` on all their stage times; halving every step until the Richardson
estimate of the error meets the tolerance makes the accuracy explicit.
The halving is :func:`lindblad._refine`, the loop that
:func:`~reslab.lindblad.evolve` uses too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qmath
from .lindblad import _MAX_BLOCK, Harmonic, LindbladTerm, _as_harmonic, _check_operator
from .lindblad import _counts, _refine, _time_grid

__all__ = [
    "FrameTransform",
    "transformed_dissipator_average",
    "EffectiveComparison",
    "compare_effective",
    "schroedinger_evolve",
]

@dataclass(frozen=True, eq=False)
class FrameTransform:
    """Unitary frame ``R(t) = exp(-i G_1 t) exp(-i G_2 t) ...`` given by its
    static Hermitian generators, outermost first.  ``rotation`` is ``R(t)``
    as a harmonic sum, built once from the generators' eigendecompositions:
    each factor is ``sum_a exp(-i w_a t) P_a`` over its eigenprojectors."""

    generators: tuple
    rotation: Harmonic = field(init=False, repr=False)

    def __post_init__(self):
        gens = tuple(qmath.as_operator(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        d = gens[0].shape[0]
        r = Harmonic([0.0], [np.eye(d)])
        for w, v in (np.linalg.eigh(0.5 * (g + qmath.dag(g))) for g in gens):
            projectors = np.einsum("ia,ja->aij", v, v.conj())
            products = np.einsum("kij,ajl->kail", r.matrices, projectors)
            r = Harmonic(np.add.outer(r.frequencies, w).ravel(), products.reshape(-1, d, d))
        object.__setattr__(self, "rotation", r)

    def to_frame(self, o) -> Harmonic:
        """``R(t)^dag O R(t)`` for a static ``O``, exactly, as a harmonic sum:
        with ``R(t) = sum_k exp(-i nu_k t) A_k`` it is
        ``sum_kl exp(-i (nu_l - nu_k) t) A_k^dag O A_l``."""
        r = self.rotation
        left = r.matrices.conj().transpose(0, 2, 1) @ qmath.as_operator(o)
        products = np.einsum("kij,ljm->klim", left, r.matrices)
        nus = np.add.outer(-r.frequencies, r.frequencies)
        return Harmonic(nus.ravel(), products.reshape(nus.size, *products.shape[-2:]))


def transformed_dissipator_average(term: LindbladTerm) -> np.ndarray:
    """Long-time average of a jump term's superoperator.

    Returns a constant Liouvillian fragment (``dim^2 x dim^2``), suitable
    as the ``extra_generator`` of a :class:`MasterEquation`: the
    zero-frequency component of ``term.superoperator()``.  For a harmonic
    jump ``sum_k exp(-i nu_k t) A_k`` the products of components with
    different frequencies oscillate and average to zero, and the merged
    ``nu_k`` are distinct, so the average is exactly the secular sum
    ``sum_k D[A_k]``; a static term is its own average.
    """
    sup = term.superoperator()
    return sup.matrices[np.argmin(np.abs(sup.frequencies))]


def _split(h: Harmonic, offsets: np.ndarray):
    """The span ``S`` the propagator is integrated over, and each offset as
    ``n S + r`` with whole spans ``n >= 0`` and ``r`` in ``(0, S]`` (``r = 0``
    at the start).  ``S`` is ``h``'s period when that is shorter than the
    last offset, else the last offset."""
    horizon = offsets[-1]
    if horizon == 0.0:
        raise ValueError("the time grid spans no time")
    period = h.period
    span = period if period and period < horizon else horizon
    whole, rest = np.divmod(offsets, span)
    # a span's end belongs to that span, so without a shorter period n = 0
    ends = (rest == 0.0) & (whole > 0)
    whole[ends] -= 1
    rest[ends] = span
    return span, _counts(whole), rest


def _gauss_legendre(stages: int):
    """Butcher tableau ``(a, b, c)`` of the ``stages``-stage Gauss-Legendre
    collocation method, of order ``2 stages``: ``c`` and ``b`` are the Gauss
    nodes and weights on ``[0, 1]``, and ``a`` solves the collocation
    conditions ``sum_j a_ij c_j^k = c_i^(k+1) / (k+1)`` for ``k < stages``."""
    x, w = np.polynomial.legendre.leggauss(stages)
    c, b = 0.5 * (x + 1.0), 0.5 * w
    k = np.arange(stages)[:, None]
    return np.linalg.solve(c**k, c ** (k + 1) / (k + 1)).T, b, c


#: the 4-stage Gauss-Legendre tableau of :func:`schroedinger_evolve`'s steps
_GL_A, _GL_B, _GL_C = _gauss_legendre(4)

#: the order of those steps, ``2 stages``, which sets the Richardson estimate
_GL_ORDER = 2 * _GL_C.size

#: first step count: ``_STEP_SCALE`` steps per radian that the fastest harmonic
#: plus the summed component norms can turn the state through.  Of 0.3 to 1.0,
#: 0.75 took the least time over the test suite's reference cases, each of
#: them accepted at the first doubling; smaller values need a third pass
_STEP_SCALE = 0.75


def _step_maps(h: Harmonic, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The Gauss-Legendre one-step maps of ``Y' = -i H(t) Y`` from ``Y = I``
    over ``[t, t + w]`` for each start ``t`` and width ``w``.  The stage slopes
    ``K_i = M_i (I + w sum_j a_ij K_j)``, ``M_i = -i H(t + c_i w)``, solve one
    linear system per step; the map is ``I + w sum_i b_i K_i``."""
    n, s, d = starts.size, _GL_C.size, h.matrices.shape[-1]
    m = -1j * h(starts[:, None] + widths[:, None] * _GL_C)  # (n, s, d, d)
    # block (i, j) of each stage system is w a_ij M_i
    coupling = widths[:, None, None, None, None] * _GL_A[:, None, :, None] * m[:, :, :, None, :]
    system = np.eye(s * d) - coupling.reshape(n, s * d, s * d)
    slopes = np.linalg.solve(system, m.reshape(n, s * d, d)).reshape(n, s, d, d)
    return np.eye(d) + widths[:, None, None] * np.tensordot(slopes, _GL_B, axes=(1, 0))


def _propagators(h: Harmonic, points: np.ndarray, substeps: np.ndarray) -> np.ndarray:
    """``U(p)`` from ``U(0) = I`` at each point ``p``, ``points[0] = 0``, the
    interval before point ``i + 1`` taken in ``substeps[i]`` equal steps."""
    widths = np.repeat(np.diff(points) / substeps, substeps)
    first = np.cumsum(substeps) - substeps  # each interval's first step
    within = np.arange(widths.size) - np.repeat(first, substeps)
    starts = np.repeat(points[:-1], substeps) + within * widths
    last = set((first + substeps - 1).tolist())
    u = np.eye(h.matrices.shape[-1], dtype=complex)
    props = [u]
    for j in range(0, widths.size, _MAX_BLOCK):
        block = slice(j, j + _MAX_BLOCK)
        for step, phi in enumerate(_step_maps(h, starts[block], widths[block]), j):
            u = phi @ u
            if step in last:
                props.append(u)
    return np.array(props)


def schroedinger_evolve(
    hamiltonian,
    psi0,
    times,
    *,
    tol: float = 1e-10,
) -> tuple[np.ndarray, dict]:
    """Integrate ``i dpsi/dt = H(t) psi`` on the grid ``times``, which must
    start at 0 and increase strictly; ``psi0`` is the state at 0.  Returns
    ``(states, info)``: the states have shape ``(len(times), dim)``, and
    ``info`` is the integrator's record (see :class:`EffectiveComparison`).

    ``hamiltonian`` is a static matrix or a :class:`Harmonic`.  The
    propagator ``U(t)`` from 0 is integrated over one span ``S``:
    ``H``'s period when that is shorter than the grid, else the whole grid.
    Each state is ``psi(t) = U(t mod S) U(S)^n psi0`` with
    ``n = floor(t / S)``, the whole spans applied to the state one at a time.

    ``U`` is integrated by 4-stage Gauss-Legendre collocation (order 8,
    unitary for Hermitian ``H``; Hairer, Lubich & Wanner, Geometric Numerical
    Integration, 2nd ed. (2006), II.1 and IV.2), kept at the points
    ``t mod S``.  The interval ``dt`` between two of them starts at
    ``max(1, ceil(_STEP_SCALE dt (max|nu_k| + sum_k ||A_k||_2)))`` equal
    steps; :func:`lindblad._refine` doubles every count until the Richardson
    estimate ``max |psi_fine - psi_coarse| / (2^8 - 1)`` over the states is
    at most ``tol``.  The record's ``achieved`` is that estimate, not a bound
    on the error, and it can understate a long integration's error: over 12
    periods at about 3e5 steps per span it reported 6.8e-13 where the error
    was 1.4e-11.

    Raises
    ------
    IntegrationDivergenceError
        If ``lindblad._MAX_REFINEMENTS`` doublings do not reach ``tol``
        (carrying the last estimate), or if a count of whole spans or of
        first steps is too large to be an integer.
    """
    _check_operator(hamiltonian, "hamiltonian")
    h = _as_harmonic(hamiltonian)
    times = _time_grid(times)
    psi0 = qmath.as_ket(psi0)
    span, whole, rest = _split(h, times)
    points, where = np.unique(np.append(rest, span), return_inverse=True)  # 0, ..., S
    rate = np.max(np.abs(h.frequencies)) + np.sum(np.linalg.norm(h.matrices, 2, axis=(1, 2)))
    substeps = _counts(np.maximum(1.0, np.ceil(_STEP_SCALE * np.diff(points) * rate)))

    def run(counts):
        props = _propagators(h, points, counts)
        kets = [psi0]  # U(S)^n psi0
        for _ in range(np.max(whole)):
            kets.append(props[where[-1]] @ kets[-1])
        return np.einsum("nij,nj->ni", props[where[:-1]], np.asarray(kets)[whole])

    def richardson(fine, coarse):
        return float(np.max(np.abs(fine - coarse))) / (2**_GL_ORDER - 1)

    states, substeps, passes, achieved = _refine(run, substeps, richardson, tol)
    return states, {
        "method": "gauss-legendre-4",
        "tol": tol,
        "achieved": achieved,
        "steps": int(np.sum(substeps)),
        "passes": passes,
        "period": span if np.max(whole) > 0 else None,
        "whole_periods": int(np.max(whole)),
    }


@dataclass(frozen=True)
class EffectiveComparison:
    """Fidelity record of a full-model versus effective-model evolution.
    ``integrator`` is :func:`schroedinger_evolve`'s record of the full-model
    integration: its ``method``, the ``tol`` and the ``achieved`` Richardson
    estimate it accepted (an estimate of the error, not a bound: see
    :func:`schroedinger_evolve`), the accepted pass's ``steps`` over one
    span, the number of ``passes`` (:func:`lindblad._refine`'s first pass and
    its doublings), the ``period`` it advanced by (None when the full
    Hamiltonian has none shorter than the time grid) and the
    ``whole_periods`` it advanced."""

    time_grid: np.ndarray
    fidelity_series: np.ndarray
    integrator: dict

    @property
    def worst_fidelity(self) -> float:
        return float(np.min(self.fidelity_series))


def compare_effective(
    full, effective, psi0, times, *, frame: Harmonic | None = None
) -> EffectiveComparison:
    """Evolve ``psi0`` under a full (possibly time-dependent) Hamiltonian and
    under a static effective one and record ``|<psi_full|psi_eff>|^2`` on the
    grid ``times``, which must start at 0 and increase strictly.

    ``psi0`` is given in full-frame coordinates.  ``frame`` is the unitary
    ``R(t)`` (a :class:`Harmonic` or a static matrix) that maps
    effective-frame states back into the full frame, so the effective side
    starts from ``R(0)^dag psi0`` and is compared as
    ``psi_eff(t) = R(t) exp(-i H_eff t) R(0)^dag psi0``.
    """
    _check_operator(frame, "frame")
    times = _time_grid(times)
    psi0 = qmath.normalized(psi0)
    full_states, integrator = schroedinger_evolve(full, psi0, times)

    h_eff = qmath.as_operator(effective)
    w, v = np.linalg.eigh(0.5 * (h_eff + qmath.dag(h_eff)))
    rs = _as_harmonic(np.eye(psi0.size) if frame is None else frame)(times)
    coeff = qmath.dag(v) @ (qmath.dag(rs[0]) @ psi0)
    eff_states = (np.exp(-1j * np.multiply.outer(times, w)) * coeff) @ v.T
    eff_states = np.einsum("nij,nj->ni", rs, eff_states)
    fids = np.abs(np.einsum("ni,ni->n", full_states.conj(), eff_states)) ** 2
    return EffectiveComparison(time_grid=times, fidelity_series=fids, integrator=integrator)
