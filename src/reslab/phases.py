"""Geometric and dynamic phase extraction along pure-state trajectories,
plus Bloch-sphere path export.

Trajectories are ``(N, d)`` stacks of kets on a time grid.  The dynamic
phase takes the Hamiltonian itself, a static matrix or a
:class:`~reslab.lindblad.Harmonic`, and evaluates it on the whole grid at
once.

The geometric phase is accumulated in the manifestly gauge-covariant
discrete (Pancharatnam) form

    phi_G = sum_k arg <psi_{k+1} | psi_k>  +  arg <psi_0 | psi_N>

which equals ``i * closed-loop integral of <psi|d psi>`` in the continuum
limit; the closure term makes the value independent of per-sample phase
conventions.  The sum of per-step principal arguments is the
continuity-unwrapped value (each step must stay well inside (-pi, pi),
which dense grids guarantee); the report folds it into the principal
range (-2 pi, 0], the gauge-invariant representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import IllConditionedPathError
from .lindblad import _as_harmonic, _check_operator

__all__ = [
    "PhaseRecord",
    "principal_phase",
    "geometric_phase",
    "dynamic_phase",
    "phase_record",
    "export_bloch_path",
]


@dataclass(frozen=True)
class PhaseRecord:
    """Accumulated phases over one trajectory; ``total`` is the sum of the
    geometric and dynamic parts by construction."""

    geometric: float
    dynamic: float
    total: float
    cycle_time: float


def principal_phase(x: float) -> float:
    """Fold an angle into the principal range (-2 pi, 0]."""
    return -float((-x) % (2.0 * np.pi))


def geometric_phase(states) -> float:
    """Discrete Pancharatnam geometric phase of a pure-state trajectory,
    folded into (-2 pi, 0].

    Parameters
    ----------
    states : sequence of kets
        Normalized states along the path; the closure term to the first
        state is always included.

    Raises
    ------
    IllConditionedPathError
        If any consecutive overlap magnitude falls below 1e-6.
    """
    kets = np.asarray(states, dtype=complex)
    if len(kets) < 2:
        raise ValueError("need at least two states")
    kets = kets.reshape(len(kets), -1)
    # <psi_{k+1} | psi_k> along the path, the closure <psi_0 | psi_N> last
    overlaps = np.einsum("ni,ni->n", np.roll(kets, -1, axis=0).conj(), kets)
    smallest = float(np.min(np.abs(overlaps)))
    if smallest < 1e-6:
        raise IllConditionedPathError(
            f"consecutive overlap magnitude {smallest:.2e} below 1.0e-06"
        )
    return principal_phase(float(np.sum(np.angle(overlaps))))


def dynamic_phase(states, times, hamiltonian) -> float:
    """Dynamic phase ``-integral <psi(t)|H(t)|psi(t)> dt`` (trapezoidal) of the
    kets ``states`` (an ``(N, d)`` stack) on ``times`` under ``hamiltonian``,
    a static matrix or a :class:`~reslab.lindblad.Harmonic`."""
    _check_operator(hamiltonian, "hamiltonian")
    times = np.asarray(times, dtype=float)
    kets = np.asarray(states, dtype=complex)
    if kets.ndim != 2 or len(kets) != times.size:
        raise ValueError("states must be a stack of kets, one per time")
    if np.any(np.abs(np.linalg.norm(kets, axis=1) - 1.0) > 1e-8):
        raise ValueError("states must be normalized")
    h = _as_harmonic(hamiltonian)(times)
    energies = np.real(np.einsum("ni,nij,nj->n", kets.conj(), h, kets))
    return -float(np.trapezoid(energies, times))


def phase_record(states, times, hamiltonian) -> PhaseRecord:
    """Geometric plus dynamic phase bookkeeping for one cycle."""
    times = np.asarray(times, dtype=float)
    geo = geometric_phase(states)
    dyn = dynamic_phase(states, times, hamiltonian)
    return PhaseRecord(
        geometric=geo,
        dynamic=dyn,
        total=geo + dyn,
        cycle_time=float(times[-1] - times[0]),
    )


def export_bloch_path(states, times, basis) -> np.ndarray:
    """Sampled Bloch coordinates ``(t, x, y, z)`` of a qubit trajectory.

    ``states`` is a stack of kets ``(N, d)`` or of density matrices ``(N, d, d)``.
    """
    times = np.asarray(times, dtype=float)
    arr = np.asarray(states, dtype=complex)
    rho = np.einsum("ni,nj->nij", arr, arr.conj()) if arr.ndim == 2 else arr
    return np.column_stack([times, qmath.bloch_vector(rho, basis)])
