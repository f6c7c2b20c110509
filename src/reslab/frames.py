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
Haenggi, Phys. Rep. 304, 229 (1998)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate

from . import qmath
from .errors import IntegrationDivergenceError
from .lindblad import Harmonic, LindbladTerm, _as_harmonic, _check_operator

__all__ = [
    "FrameTransform",
    "transformed_dissipator_average",
    "EffectiveComparison",
    "compare_effective",
    "schroedinger_evolve",
]

#: DOP853 tolerances of :func:`schroedinger_evolve`
RTOL = 1e-10
ATOL = 1e-12


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
    last offset, else the last offset; it carries that offset's sign."""
    horizon = offsets[-1]
    if horizon == 0.0:
        raise ValueError("the time grid spans no time")
    period = h.period
    span = math.copysign(period, horizon) if period and period < abs(horizon) else horizon
    whole, rest = np.divmod(offsets, span)
    # a span's end belongs to that span, so without a shorter period n = 0
    ends = (rest == 0.0) & (whole > 0)
    whole[ends] -= 1
    rest[ends] = span
    return span, whole.astype(int), rest


def schroedinger_evolve(
    hamiltonian,
    psi0,
    times,
    *,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> np.ndarray:
    """Integrate ``i dpsi/dt = H(t) psi`` on a time grid; ``psi0`` is the state
    at ``times[0]``, and the result has shape ``(len(times), dim)``.

    ``hamiltonian`` is a static matrix or a :class:`Harmonic`.  The
    propagator ``U(t)`` from ``times[0]`` is integrated by DOP853 over one
    span ``S``: ``H``'s period when that is shorter than the grid, else the
    whole grid.  Each state is ``psi(t) = U(t mod S) U(S)^n psi0`` with
    ``n = floor(t / S)``, the whole spans applied to the state one at a time.
    Without a shorter period no whole span is advanced, and only ``U psi0``,
    the state itself, is integrated.
    """
    _check_operator(hamiltonian, "hamiltonian")
    h = _as_harmonic(hamiltonian)
    times = np.asarray(times, dtype=float)
    psi0 = qmath.as_ket(psi0)
    t0, d = float(times[0]), psi0.size
    span, whole, rest = _split(h, times - t0)
    # the columns of U the states need: all of them to advance whole spans,
    # else only U psi0, which is the direct integration of the state
    periodic = np.max(whole) > 0
    block = np.eye(d, dtype=complex) if periodic else psi0[:, None]
    grid, where = np.unique(np.append(rest, span), return_inverse=True)
    generators, nu = (-1j * h.matrices).reshape(-1, d * d), h.frequencies

    def rhs(t, y):
        # -i H(t) Y, with H(t) formed once per call
        h_t = (np.exp(-1j * (t + t0) * nu) @ generators).reshape(d, d)
        return (h_t @ y.reshape(block.shape)).ravel()

    step = 1 if span > 0 else -1
    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, span),
        block.ravel(),
        t_eval=grid[::step],
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise IntegrationDivergenceError(np.nan, rtol, f"solve_ivp failed: {sol.message}")
    props = sol.y.T.reshape(-1, *block.shape)[::step]
    # the states' coefficients on the block's columns: U(S)^n psi0, or 1
    kets = [psi0 if periodic else np.ones(1)]
    for _ in range(np.max(whole)):
        kets.append(props[where[-1]] @ kets[-1])
    return np.einsum("nij,nj->ni", props[where[:-1]], np.asarray(kets)[whole])


@dataclass(frozen=True)
class EffectiveComparison:
    """Fidelity record of a full-model versus effective-model evolution.
    ``integrator`` describes the full-model integration: DOP853's ``rtol`` and
    ``atol``, the ``period`` it advanced by (None when the full Hamiltonian has
    none shorter than the horizon) and the ``whole_periods`` it advanced."""

    time_grid: np.ndarray
    fidelity_series: np.ndarray
    integrator: dict

    @property
    def worst_fidelity(self) -> float:
        return float(np.min(self.fidelity_series))


def compare_effective(
    full,
    effective,
    psi0,
    horizon: float,
    *,
    n_samples: int = 201,
    frame: Harmonic | None = None,
) -> EffectiveComparison:
    """Evolve ``psi0`` under a full (possibly time-dependent) Hamiltonian and
    under a static effective one and record ``|<psi_full|psi_eff>|^2``.

    ``psi0`` is given in full-frame coordinates.  ``frame`` is the unitary
    ``R(t)`` (a :class:`Harmonic` or a static matrix) that maps
    effective-frame states back into the full frame, so the effective side
    starts from ``R(0)^dag psi0`` and is compared as
    ``psi_eff(t) = R(t) exp(-i H_eff t) R(0)^dag psi0``.
    """
    _check_operator(frame, "frame")
    times = np.linspace(0.0, horizon, n_samples)
    psi0 = qmath.normalized(psi0)
    full_states = schroedinger_evolve(full, psi0, times)

    h_eff = qmath.as_operator(effective)
    w, v = np.linalg.eigh(0.5 * (h_eff + qmath.dag(h_eff)))
    rs = _as_harmonic(np.eye(psi0.size) if frame is None else frame)(times)
    coeff = qmath.dag(v) @ (qmath.dag(rs[0]) @ psi0)
    eff_states = (np.exp(-1j * np.multiply.outer(times, w)) * coeff) @ v.T
    eff_states = np.einsum("nij,nj->ni", rs, eff_states)
    fids = np.abs(np.einsum("ni,ni->n", full_states.conj(), eff_states)) ** 2
    span, whole, _ = _split(_as_harmonic(full), times)
    integrator = {
        "method": "DOP853",
        "rtol": RTOL,
        "atol": ATOL,
        "period": abs(span) if np.max(whole) > 0 else None,
        "whole_periods": int(np.max(whole)),
    }
    return EffectiveComparison(time_grid=times, fidelity_series=fids, integrator=integrator)
