"""Rotating frames, operator conjugation, and the time-averaging oracle
used to validate dressed-frame reductions.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.integrate

from . import qmath
from .errors import DimensionMismatchError, IntegrationDivergenceError
from .lindblad import Harmonic, LindbladTerm, _as_harmonic, _check_operator

__all__ = [
    "FrameTransform",
    "conjugate_operator",
    "transformed_dissipator_average",
    "EffectiveComparison",
    "compare_effective",
    "schroedinger_evolve",
]


@dataclass(frozen=True, eq=False)
class FrameTransform:
    """Unitary frame ``R(t) = exp(-i G_1 t) exp(-i G_2 t) ...`` given by its
    static Hermitian generators, outermost first.  ``rotation`` is ``R(t)``
    as a harmonic sum, built once from the cached eigendecompositions: each
    factor is ``sum_a exp(-i w_a t) P_a`` over its eigenprojectors."""

    generators: tuple
    _eigh: tuple = field(init=False, repr=False)
    rotation: Harmonic = field(init=False, repr=False)

    def __post_init__(self):
        gens = tuple(qmath.as_operator(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        eighs = tuple(np.linalg.eigh(0.5 * (g + qmath.dag(g))) for g in gens)
        object.__setattr__(self, "_eigh", eighs)
        d = gens[0].shape[0]
        r = Harmonic([0.0], [np.eye(d)])
        for w, v in eighs:
            projectors = np.einsum("ia,ja->aij", v, v.conj())
            products = np.einsum("kij,ajl->kail", r.matrices, projectors)
            r = Harmonic(np.add.outer(r.frequencies, w).ravel(), products.reshape(-1, d, d))
        object.__setattr__(self, "rotation", r)

    def __call__(self, t) -> np.ndarray:
        return self.sampler(t)

    def sampler(self, t) -> np.ndarray:
        """``R(t)``; a 1-d array of times gives the stack of ``R`` on that grid."""
        return self.rotation(t)

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

    ``hamiltonian`` is a static matrix or a :class:`Harmonic`; returns an
    array of shape ``(len(times), dim)``.
    """
    _check_operator(hamiltonian, "hamiltonian")
    h = _as_harmonic(hamiltonian)
    times = np.asarray(times, dtype=float)
    psi0 = qmath.as_ket(psi0)
    generators, nu = -1j * h.matrices, h.frequencies

    def rhs(t, y):
        # -i H(t) y = sum_k exp(-i nu_k t) (-i A_k y), without forming H(t)
        return np.exp(-1j * t * nu) @ (generators @ y)

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
    return EffectiveComparison(time_grid=times, fidelity_series=fids)
