"""Rotating frames, operator conjugation, and the time-averaging oracle
used to validate dressed-frame reductions.

A frame is the unitary family ``R(t) = exp(-i G_1 t) exp(-i G_2 t) ...``,
a product of exponentials of static Hermitian generators.  States map as
``psi -> R(t) psi`` and operators as ``O -> R O R^dag``.  An operator
seen from inside the frame, ``R(t)^dag O R(t)``, is a finite Fourier sum
and is returned exactly as a :class:`~reslab.lindblad.Harmonic`.

The averaging oracle works at the superoperator level: averaging the
jump operator itself would discard the terms that survive in
``O rho O^dag``.  For a harmonic jump the long-time average is exact: the
secular sum keeps the products of equal-frequency components.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.integrate

from . import qmath
from .errors import DimensionMismatchError, IntegrationDivergenceError
from .lindblad import Harmonic, LindbladTerm

__all__ = [
    "FrameTransform",
    "compose_frames",
    "conjugate_operator",
    "transformed_dissipator_average",
    "EffectiveComparison",
    "compare_effective",
    "schroedinger_evolve",
]


@dataclass(frozen=True, eq=False)
class FrameTransform:
    """Unitary frame ``R(t) = exp(-i G_1 t) exp(-i G_2 t) ...`` given by its
    static Hermitian generators, outermost first."""

    generators: tuple
    _eigh: tuple = field(init=False, repr=False)

    def __post_init__(self):
        gens = tuple(qmath.as_operator(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(
            self, "_eigh", tuple(np.linalg.eigh(0.5 * (g + qmath.dag(g))) for g in gens)
        )

    def __call__(self, t: float) -> np.ndarray:
        return self.sampler(t)

    def _factors(self, t: float) -> list:
        return [(v * np.exp(-1j * w * t)) @ qmath.dag(v) for w, v in self._eigh]

    def sampler(self, t: float) -> np.ndarray:
        """``R(t)``."""
        return functools.reduce(np.matmul, self._factors(t))

    def generator_sampler(self, t: float) -> np.ndarray:
        """Hermitian generator ``i dR/dt R^dag = G_1 + U_1 G_2 U_1^dag + ...``."""
        h, outer = 0, np.eye(len(self.generators[0]))
        for g, u in zip(self.generators, self._factors(t)):
            h, outer = h + outer @ g @ qmath.dag(outer), outer @ u
        return h

    def to_frame(self, o) -> Harmonic:
        """``R(t)^dag O R(t)`` for a static ``O``, exactly, as a harmonic sum.

        Each factor is ``U = sum_a exp(-i w_a t) P_a`` over its eigenprojectors,
        so conjugation maps ``exp(-i nu t) A`` to the terms
        ``exp(-i (nu + w_b - w_a) t) P_a A P_b``.
        """
        h = Harmonic([0.0], [qmath.as_operator(o)])
        for w, v in self._eigh:
            vd = qmath.dag(v)
            nus, mats = [], []
            for nu, a in zip(h.frequencies, h.matrices):
                elements = vd @ a @ v  # <v_a| A |v_b>
                for i, j in np.ndindex(elements.shape):
                    nus.append(nu + w[j] - w[i])
                    mats.append(elements[i, j] * np.outer(v[:, i], vd[j]))
            h = Harmonic(nus, mats)
        return h


def compose_frames(outer: FrameTransform, inner: FrameTransform) -> FrameTransform:
    """Frame of the product ``R(t) = R_outer(t) R_inner(t)``."""
    return FrameTransform(outer.generators + inner.generators)


def conjugate_operator(r, o) -> np.ndarray:
    """Frame-transformed operator ``R O R^dag``."""
    rm = qmath.as_operator(r)
    om = qmath.as_operator(o)
    if rm.shape != om.shape:
        raise DimensionMismatchError(f"frame shape {rm.shape} != operator shape {om.shape}")
    return rm @ om @ qmath.dag(rm)


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


def schroedinger_evolve(
    hamiltonian,
    psi0,
    times,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """Integrate ``i dpsi/dt = H(t) psi`` on a time grid (DOP853).

    ``hamiltonian`` may be a static matrix, a :class:`Harmonic` or any
    sampler ``t -> matrix``; returns an array of shape ``(len(times), dim)``.
    """
    times = np.asarray(times, dtype=float)
    psi0 = qmath.as_ket(psi0)
    if callable(hamiltonian):
        sample = hamiltonian
    else:
        h_static = qmath.as_operator(hamiltonian)
        sample = lambda t: h_static  # noqa: E731

    def rhs(t, y):
        return -1j * (sample(t) @ y)

    sol = scipy.integrate.solve_ivp(
        rhs,
        (times[0], times[-1]),
        psi0,
        t_eval=times,
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise IntegrationDivergenceError(np.nan, rtol, f"solve_ivp failed: {sol.message}")
    return sol.y.T.copy()


@dataclass(frozen=True)
class EffectiveComparison:
    """Fidelity record of a full-model versus effective-model evolution."""

    time_grid: np.ndarray
    fidelity_series: np.ndarray

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
    frame: Callable[[float], np.ndarray] | None = None,
) -> EffectiveComparison:
    """Evolve ``psi0`` under a full (possibly time-dependent) Hamiltonian and
    under a static effective one and record ``|<psi_full|psi_eff>|^2``.

    ``psi0`` is given in full-frame coordinates.  ``frame`` maps
    effective-frame states back into the full frame, so the effective side
    starts from ``R(0)^dag psi0`` and is compared as
    ``psi_eff(t) = R(t) exp(-i H_eff t) R(0)^dag psi0``; a
    :class:`FrameTransform` or any sampler ``t -> R(t)`` will do.
    """
    times = np.linspace(0.0, horizon, n_samples)
    psi0 = qmath.normalized(psi0)
    full_states = schroedinger_evolve(full, psi0, times)

    h_eff = qmath.as_operator(effective)
    w, v = np.linalg.eigh(0.5 * (h_eff + qmath.dag(h_eff)))
    psi_eff0 = qmath.dag(frame(0.0)) @ psi0 if frame is not None else psi0
    coeff = qmath.dag(v) @ psi_eff0

    fids = np.empty(n_samples)
    for i, t in enumerate(times):
        psi_eff = v @ (np.exp(-1j * w * t) * coeff)
        if frame is not None:
            psi_eff = frame(t) @ psi_eff
        fids[i] = abs(np.vdot(full_states[i], psi_eff)) ** 2
    return EffectiveComparison(time_grid=times, fidelity_series=fids)
