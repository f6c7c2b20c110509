"""Three-level interferometric readout of the protected-state phase.

An auxiliary level ``|a>`` is uncoupled from every drive and jump
operator and serves as the phase reference.  The simulation runs in the
frame in which the engineered jump operator is static, with levels
ordered ``(a, up, down)``; the measured coherence is re-expressed against
the protected trajectory in the interaction picture, whose accumulated
phase grows as ``(omega1 + omega2/2) t``.

The closed-form population-inversion reference
``P_ea(t) = cos[(2 omega1 + omega2) t]/2`` oscillates at exactly twice
that rate; both quantities and their factor-two relation are reported
without asserting a particular pulse sequence that would map one onto
the other.

The caller passes the time grid, which :func:`~reslab.lindblad.evolve`
checks; the ``interferometer`` scenario's default spans three half-cycles,
``3 pi / omega1``, in 601 samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, qmath
from .errors import SimulationError
from .lindblad import LindbladTerm, MasterEquation, Trajectory, evolve

__all__ = [
    "InterferometerResult",
    "run_interferometer",
    "population_inversion_reference",
]


@dataclass
class InterferometerResult:
    trajectory: Trajectory
    rho_aa: np.ndarray
    population_up: np.ndarray
    population_down: np.ndarray
    coherence: np.ndarray
    phase: np.ndarray
    phase_slope: float
    expected_slope: float
    reference_series: np.ndarray
    reference_frequency: float
    conservation_defect: float
    coherence_decay_fraction: float


def population_inversion_reference(omega1: float, omega2: float, t) -> np.ndarray | float:
    """Closed-form population-inversion signal ``cos[(2 omega1 + omega2) t] / 2``."""
    return np.cos((2.0 * omega1 + omega2) * np.asarray(t, dtype=float)) / 2.0


def run_interferometer(
    p: model.ModelParams, times, *, include_tl_decay: bool = False
) -> InterferometerResult:
    """Integrate the three-level master equation over ``times`` and extract
    the phase.

    The initial state is the equal superposition of the reference level
    and the protected state.  The engineered reservoir enters as the
    static jump ``|up><down|`` (zero on the auxiliary level); the
    extracted phase is ``-arg <ref(t)|rho(t)|a>`` unwrapped, with the
    reference being the protected trajectory in the drive-dressed gauge.
    ``include_tl_decay`` adds the spontaneous-emission channel of the
    two-level system (off by default: within one cycle its contribution
    is small, and that smallness is checked by the tests rather than
    assumed).

    Raises
    ------
    SimulationError
        If the grid's time scale overflows or underflows the linear fit of the
        phase (at extreme drive frequencies), or the fit fails or has slope 0.
    """
    jump = np.zeros((3, 3), dtype=complex)
    jump[1, 2] = 1.0  # |up><down|, auxiliary row and column identically zero
    terms = [LindbladTerm(rate=model.engineered_rate(p, "nonadiabatic"), operator=jump)]

    if include_tl_decay:
        decay = model.dressed_decay_jump(p, "nonadiabatic")
        # auxiliary row and column identically zero
        decay = decay.map(lambda o: np.pad(o, ((1, 0), (1, 0))))
        terms.append(LindbladTerm(rate=p.gamma, operator=decay))

    me = MasterEquation(dim=3, hamiltonian=None, terms=tuple(terms))
    psi0 = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    traj = evolve(me, qmath.projector(psi0), times)
    times = traj.times

    rho_aa, pop_up, pop_down = (traj.states[:, i, i].real for i in range(3))
    conservation = float(np.max(np.abs(rho_aa + pop_up + pop_down - 1.0)))

    # reference ray mapped back into the frame of the simulation: (R(t) W)^dag ref(t)
    rw = model.branch_of(p, "nonadiabatic").dressed_frame(times)
    refs = np.einsum("nji,nj->ni", rw.conj(), model.protected_state_dressed_gauge(p, times))
    coherence = np.einsum("ni,ni->n", refs.conj(), traj.states[:, 1:, 0])

    phase = -np.unwrap(np.angle(coherence))
    t_end = float(times[-1])  # the fit scales the times by sqrt(sum t^2) <= t_end sqrt(n)
    if not 0.0 < t_end * t_end * times.size < np.inf:
        raise SimulationError(f"the grid's time scale {t_end:.6g} is out of the phase fit's range")
    try:
        slope = float(np.polyfit(times, phase, 1)[0])
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"the linear fit of the phase failed: {exc}") from exc
    if slope == 0.0:
        raise SimulationError("the linear fit of the phase has slope 0")
    abs_c = np.abs(coherence)
    return InterferometerResult(
        trajectory=traj,
        rho_aa=rho_aa,
        population_up=pop_up,
        population_down=pop_down,
        coherence=coherence,
        phase=phase,
        phase_slope=slope,
        expected_slope=p.omega1 + 0.5 * p.omega2,
        reference_series=population_inversion_reference(p.omega1, p.omega2, times),
        reference_frequency=2.0 * p.omega1 + p.omega2,
        conservation_defect=conservation,
        coherence_decay_fraction=float(1.0 - abs_c[-1] / abs_c[0]),
    )
