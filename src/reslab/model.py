"""Ion-cavity model builders: drive/cavity Hamiltonians, dressed bases and
frames, the engineered reduced master equation, protected states, and
closed-form fidelity predictions.

Basis conventions (fixed package-wide):

* bare two-level basis ordered ``(|e>, |g>)``;
* drive-dressed basis ``|+-> = (|e> +- e^{-i phi1} |g>)/sqrt(2)`` and the
  doubly dressed pair ``|up/down> = (|+> +- e^{-i phi} |->)/sqrt(2)`` with
  ``phi = phi1 - phi2``;
* detuned-drive dressed pair
  ``|T+-> = (sqrt(2 +- chi) |e> +- e^{-i phi1} sqrt(2 -+ chi) |g>)/2``
  with ``chi = delta1/lambda`` and ``lambda = sqrt(omega1^2 + delta1^2/4)``;
* composite spaces are ordered (two-level factor) x (Fock factor).

All dressed bases are constructed from these closed forms rather than
numerical eigensolvers so that global phases are pinned once.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import RegimeError
from .frames import rotation, to_frame
from .lindblad import Harmonic, LindbladTerm, MasterEquation

__all__ = [
    "ModelParams",
    "DerivedMemoryParams",
    "BRANCHES",
    "Branch",
    "branch_of",
    "RegimeReport",
    "check_regime",
    "require_regime",
    "ket_e",
    "ket_g",
    "plus_ket",
    "minus_ket",
    "up_ket",
    "down_ket",
    "tilde_plus_ket",
    "tilde_minus_ket",
    "sigma",
    "drive_generator_1",
    "drive_generator_2",
    "memory_generator",
    "build_h1",
    "build_h1_memory",
    "effective_model",
    "dressed_decay_jump",
    "engineered_rate",
    "epsilon_closed_form",
    "reduced_master_equation",
    "dressed_decay_generator",
    "protected_state_nonadiabatic",
    "protected_state_memory",
    "protected_state_dressed_gauge",
    "drive_interaction_hamiltonian",
    "full_system_master_equation",
]

SIGMA_Z = np.diag([1.0 + 0j, -1.0 + 0j])  # |e><e| - |g><g|


@dataclass(frozen=True)
class ModelParams:
    """Full parameter record of the driven ion-cavity system.

    Angular frequencies and rates are in rad/s and 1/s respectively:
    ``g`` ion-cavity coupling, ``omega1/omega2`` classical drive
    amplitudes with phases ``phi1/phi2``, detunings ``delta_a`` (cavity)
    and ``delta1/delta2`` (drives), ``Gamma`` cavity decay, ``gamma``
    spontaneous emission, ``n_max`` Fock cutoff.

    Defaults put the engineered-to-spontaneous rate ratio at 100 and the
    drive ratio omega2/omega1 at 0.05, with the nonadiabatic resonance
    conditions (delta1 = 0, delta2 = -2 omega1, delta_a = -omega2) built in.
    """

    g: float = 1e5
    omega1: float = 2e7
    omega2: float = 1e6
    phi1: float = 0.0
    phi2: float = 0.0
    delta_a: float = -1e6
    delta1: float = 0.0
    delta2: float = -4e7
    Gamma: float = 1e6
    gamma: float = 1e2
    n_max: int = 2

    def __post_init__(self):
        for name in ("g", "omega1", "omega2", "Gamma", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def phi(self) -> float:
        """Relative drive phase phi1 - phi2."""
        return self.phi1 - self.phi2

    def replace(self, **changes) -> "ModelParams":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class DerivedMemoryParams:
    """Quantities derived from the detuned single drive: splitting ``lam``,
    asymmetry ``chi = delta1/lam`` in [-2, 2] and reduced coupling
    ``g_tilde = g (1 - chi/2)``."""

    lam: float
    chi: float
    g_tilde: float

    @staticmethod
    def from_params(p: ModelParams) -> "DerivedMemoryParams":
        lam = float(np.hypot(p.omega1, 0.5 * p.delta1))
        if lam == 0.0:
            raise ValueError("omega1 and delta1 cannot both vanish")
        chi = p.delta1 / lam
        return DerivedMemoryParams(lam=lam, chi=chi, g_tilde=p.g * (1.0 - 0.5 * chi))


BRANCHES = ("nonadiabatic", "memory")  # the names branch_of resolves


@dataclass
class Branch:
    """One protected branch resolved for one parameter set: ``pins`` maps each
    resonance check to the ``(parameter, value)`` it pins, checked against
    ``1e-9 scale``; ``coupling`` is the engineered coupling and ``slope`` the
    ``c`` of ``epsilon = [2 + c ratio]^-1``.  The protected and pumped
    ``kets``, the frame ``generators`` and the full Hamiltonian ``h1``
    (written in the frame of the first ``h1_rotated`` generators) are built
    only when called for.  The effective check starts in ``kets()[start]``
    and reports its ``check_options``, given here with their defaults.
    ``rate_equations(gamma)`` is the reduced model's decay generator, or None."""

    pins: dict
    scale: float
    coupling: float
    slope: float
    h1_rotated: int
    start: int
    check_options: dict
    kets: Callable
    generators: Callable
    h1: Callable
    rate_equations: Callable | None

    @property
    def basis(self) -> np.ndarray:
        """Columns: the protected and the pumped ket in bare coordinates."""
        return np.column_stack(self.kets())

    @property
    def dressed_frame(self) -> Harmonic:
        """``R(t) W``: the :attr:`basis` ``W`` turned by the frame ``R`` of the
        generators ``h1`` is not already written in, so it maps into ``h1``'s frame."""
        w = self.basis
        return rotation(self.generators()[self.h1_rotated :]).map(lambda u: u @ w)


def branch_of(p: ModelParams, branch: str) -> Branch:
    """The record of ``branch`` at ``p``.

    Nonadiabatic: delta1 = 0, delta2 = -2 omega1, delta_a = -omega2; coupling
    g; basis (up, down); frame ``R = U1 U2`` of the two drives, so the
    protected trajectory is ``R(t)|up>``; full Hamiltonian :func:`build_h1`.

    Memory: omega2 = 0, delta_a = -2 lambda; coupling g_tilde = g (1 - chi/2);
    basis (T+, T-); frame ``exp(-i delta1 sigma_z t/2) exp(-i K t)`` with K the
    detuned drive generator, so the protected trajectory is ``R(t)|T+>``;
    full Hamiltonian :func:`build_h1_memory`, in which the detuned drive is
    already static.  There is no second drive, so ``delta2`` sets no scale.
    """
    scale = max(p.omega1, p.omega2, abs(p.delta_a), p.g, 1.0)
    if branch == "nonadiabatic":
        return Branch(
            pins={
                "delta1_zero": ("delta1", 0.0),
                "delta2_minus_two_omega1": ("delta2", -2.0 * p.omega1),
                "delta_a_minus_omega2": ("delta_a", -p.omega2),
            },
            scale=max(scale, abs(p.delta2) / 2.0), coupling=p.g, slope=8.0 / 3.0, h1_rotated=0,
            start=0, check_options={},
            kets=lambda: (up_ket(p.phi1, p.phi), down_ket(p.phi1, p.phi)),
            generators=lambda: (drive_generator_1(p), drive_generator_2(p)),
            h1=lambda: build_h1(p), rate_equations=dressed_decay_generator,
        )
    if branch == "memory":
        d = DerivedMemoryParams.from_params(p)
        return Branch(
            pins={"omega2_zero": ("omega2", 0.0),
                  "delta_a_minus_two_lambda": ("delta_a", -2.0 * d.lam)},
            scale=scale, coupling=d.g_tilde, slope=1.0, h1_rotated=1,
            start=1, check_options={"chi": 0.0},
            kets=lambda: (tilde_plus_ket(d.chi, p.phi1), tilde_minus_ket(d.chi, p.phi1)),
            generators=lambda: (0.5 * p.delta1 * SIGMA_Z, memory_generator(p)),
            h1=lambda: build_h1_memory(p), rate_equations=None,
        )
    raise ValueError(f"unknown branch {branch!r}")


@dataclass(frozen=True)
class RegimeReport:
    """Constraint residuals (rad/s) and hierarchy ratios for one branch."""

    branch: str
    checks: dict
    ratios: dict

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def __str__(self):
        failed = {k: res for k, (ok, res) in self.checks.items() if not ok}
        return f"RegimeReport({self.branch}, failed={failed}, ratios={self.ratios})"


def check_regime(p: ModelParams, branch: str) -> RegimeReport:
    """Check the resonance constraints of the requested branch.

    Residuals are absolute (rad/s); a constraint passes when its residual
    is at most 1e-9 times the drive scale of the branch (:func:`branch_of`).
    """
    b = branch_of(p, branch)
    checks = {k: abs(getattr(p, name) - value) for k, (name, value) in b.pins.items()}
    rated = {k: (res <= 1e-9 * b.scale, res) for k, res in checks.items()}

    def _ratio(a, b):
        return float(a / b) if b != 0 else float("inf")

    ratios = {
        "omega1_over_omega2": _ratio(p.omega1, p.omega2),
        "omega2_over_g": _ratio(p.omega2, p.g),
        "Gamma_over_g": _ratio(p.Gamma, p.g),
        "rate_eng_over_gamma": _ratio(engineered_rate(p, branch), p.gamma)
        if p.Gamma > 0
        else float("inf"),
    }
    return RegimeReport(branch=branch, checks=rated, ratios=ratios)


def require_regime(p: ModelParams, branch: str) -> RegimeReport:
    """:func:`check_regime`, raising :class:`RegimeError` carrying the report
    when a constraint fails."""
    report = check_regime(p, branch)
    if not report.ok:
        raise RegimeError(report)
    return report


# --- bases -----------------------------------------------------------------


def ket_e() -> np.ndarray:
    return qmath.basis_ket(2, 0)


def ket_g() -> np.ndarray:
    return qmath.basis_ket(2, 1)


def plus_ket(phi1: float) -> np.ndarray:
    return (ket_e() + np.exp(-1j * phi1) * ket_g()) / np.sqrt(2.0)


def minus_ket(phi1: float) -> np.ndarray:
    return (ket_e() - np.exp(-1j * phi1) * ket_g()) / np.sqrt(2.0)


def up_ket(phi1: float, phi: float) -> np.ndarray:
    return (plus_ket(phi1) + np.exp(-1j * phi) * minus_ket(phi1)) / np.sqrt(2.0)


def down_ket(phi1: float, phi: float) -> np.ndarray:
    return (plus_ket(phi1) - np.exp(-1j * phi) * minus_ket(phi1)) / np.sqrt(2.0)


def tilde_plus_ket(chi: float, phi1: float) -> np.ndarray:
    return (
        np.sqrt(2.0 + chi) * ket_e() + np.exp(-1j * phi1) * np.sqrt(2.0 - chi) * ket_g()
    ) / 2.0


def tilde_minus_ket(chi: float, phi1: float) -> np.ndarray:
    return (
        np.sqrt(2.0 - chi) * ket_e() - np.exp(-1j * phi1) * np.sqrt(2.0 + chi) * ket_g()
    ) / 2.0


def sigma(bra_into, ket_from) -> np.ndarray:
    """Transition operator |bra_into><ket_from|."""
    return np.outer(qmath.as_ket(bra_into), np.conj(qmath.as_ket(ket_from)))


# --- frames ----------------------------------------------------------------


def drive_generator_1(p: ModelParams) -> np.ndarray:
    """omega1 (e^{i phi1} |e><g| + h.c.); eigenkets |+->, eigenvalues +-omega1."""
    a = p.omega1 * np.exp(1j * p.phi1) * sigma(ket_e(), ket_g())
    return a + qmath.dag(a)


def drive_generator_2(p: ModelParams) -> np.ndarray:
    """omega2/2 (e^{i phi} |+><-| + h.c.); eigenkets |up/down>, eigenvalues +-omega2/2."""
    a = 0.5 * p.omega2 * np.exp(1j * p.phi) * sigma(plus_ket(p.phi1), minus_ket(p.phi1))
    return a + qmath.dag(a)


def memory_generator(p: ModelParams) -> np.ndarray:
    """delta1 sigma_z / 2 + omega1 (e^{i phi1}|e><g| + h.c.); eigenkets |T+->,
    eigenvalues +-lambda."""
    return 0.5 * p.delta1 * SIGMA_Z + drive_generator_1(p)


# --- Hamiltonians ----------------------------------------------------------


def build_h1(p: ModelParams) -> Harmonic:
    """Interaction-picture Hamiltonian of the driven ion-cavity system:

    ``[g e^{-i delta_a t} a + omega1 e^{i(phi1 - delta1 t)}
    + omega2 e^{i(phi2 - delta2 t)}] |e><g| + h.c.``,

    a harmonic sum at frequencies ``+-delta_a``, ``+-delta1`` and
    ``+-delta2``.  Valid for any parameters; resonance constraints are only
    required by the effective builders.
    """
    eye_f = np.eye(p.n_max + 1)
    seg = sigma(ket_e(), ket_g())
    nus = [p.delta_a, p.delta1, p.delta2]
    uppers = [
        p.g * qmath.kron(seg, qmath.fock_annihilation(p.n_max)),
        p.omega1 * np.exp(1j * p.phi1) * qmath.kron(seg, eye_f),
        p.omega2 * np.exp(1j * p.phi2) * qmath.kron(seg, eye_f),
    ]
    return Harmonic(nus + [-nu for nu in nus], uppers + [qmath.dag(u) for u in uppers])


def build_h1_memory(p: ModelParams) -> Harmonic:
    """Single-drive Hamiltonian in the frame where the detuned drive is
    static: ``delta1 sigma_z/2 + omega1 (e^{i phi1}|e><g| + h.c.)
    + (g e^{-i delta_a t} a |e><g| + h.c.)``."""
    eye_f = np.eye(p.n_max + 1)
    upper = p.g * qmath.kron(sigma(ket_e(), ket_g()), qmath.fock_annihilation(p.n_max))
    return Harmonic(
        [0.0, p.delta_a, -p.delta_a],
        [qmath.kron(memory_generator(p), eye_f), upper, qmath.dag(upper)],
    )


def effective_model(p: ModelParams, branch: str) -> tuple[Harmonic, Harmonic, np.ndarray]:
    """``(H1, F, H2)``: the branch's full Hamiltonian, its dressed frame lifted
    to the Fock factor, ``F = R W (x) 1`` (:attr:`Branch.dressed_frame`), and
    ``H2 = mean(F^dag H1 F - i F^dag dF/dt)``,
    ``H1`` averaged in that frame (James & Jerke, Can. J. Phys. 85, 625 (2007)).
    The drive terms cancel in that mean, leaving an error of ``~1e-15 max|H1|``
    at any ``g``; its Hermitian part is kept.  Raises :class:`RegimeError` off
    the branch's resonances."""
    require_regime(p, branch)
    b, eye_f = branch_of(p, branch), np.eye(p.n_max + 1)
    h1, frame = b.h1(), b.dressed_frame.map(lambda m: qmath.kron(m, eye_f))
    h2 = to_frame(frame, h1, hamiltonian=True).mean
    return h1, frame, 0.5 * (h2 + qmath.dag(h2))


# --- engineered reservoir, closed forms -------------------------------------


def engineered_rate(p: ModelParams, branch: str = "nonadiabatic") -> float:
    """Effective pump rate of the engineered reservoir, ``coupling^2 / Gamma``
    with the branch's coupling (``g``, or ``g_tilde`` on the memory branch);
    ``inf`` where the square overflows."""
    if p.Gamma <= 0:
        raise ValueError("Gamma must be positive")
    coupling = branch_of(p, branch).coupling
    try:
        return coupling**2 / p.Gamma
    except OverflowError:
        return math.inf


def epsilon_closed_form(ratio: float, branch: str = "nonadiabatic") -> float:
    """Residual population of the pumped state at the engineered fixed point,
    as a function of the rate ratio (engineered rate / gamma):
    ``[2 + c ratio]^-1`` with the branch's slope ``c``, 8/3 (nonadiabatic)
    or 1 (memory)."""
    if ratio < 0:
        raise ValueError("ratio must be >= 0")
    # the slope depends on the branch alone; any parameter set resolves it
    return 1.0 / (2.0 + branch_of(ModelParams(), branch).slope * ratio)


def dressed_decay_generator(gamma: float) -> np.ndarray:
    """Constant generator of the dressed-basis spontaneous-emission rate
    equations used by the reduced model (basis order (up, down)):

        d rho_uu/dt = 3 gamma/8 - (3 gamma/2) rho_uu
        d rho_ud/dt = -(5 gamma/4) rho_ud + (gamma/8) rho_du

    The constant term is folded onto the trace-one subspace via
    ``rho_uu + rho_dd = 1``, which makes the generator linear (and exactly
    trace- and Hermiticity-preserving) so the engine can integrate it.
    This system is not of Lindblad form; it is kept as stated so that the
    frame-averaging oracle, which derives its own coefficients
    independently, can be compared against it coefficient by coefficient.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    gen = np.zeros((4, 4), dtype=complex)
    # vec order (column stacking, basis (up, down)): [uu, du, ud, dd]
    gen[0, 0] = -9.0 * gamma / 8.0
    gen[0, 3] = 3.0 * gamma / 8.0
    gen[3, 0] = 9.0 * gamma / 8.0
    gen[3, 3] = -3.0 * gamma / 8.0
    gen[1, 1] = -5.0 * gamma / 4.0
    gen[1, 2] = gamma / 8.0
    gen[2, 2] = -5.0 * gamma / 4.0
    gen[2, 1] = gamma / 8.0
    return gen


def reduced_master_equation(
    p: ModelParams, branch: str = "nonadiabatic", include_gamma: bool = False
) -> MasterEquation:
    """Two-level master equation obtained after adiabatic elimination of the
    lossy cavity mode, written in the protected basis of the branch.

    The jump operator |protected><pumped| carries the engineered rate as a
    population transfer rate (:class:`~reslab.lindblad.LindbladTerm`), which
    is what the eliminated two-part model and the dressed rate equations
    both give.
    With ``include_gamma`` the branch's dressed spontaneous-emission rate
    equations (:attr:`Branch.rate_equations`) are added as an extra
    generator; the memory branch defines none.
    """
    rate = engineered_rate(p, branch)
    jump = sigma(qmath.basis_ket(2, 0), qmath.basis_ket(2, 1))
    extra = None
    if include_gamma:
        rate_equations = branch_of(p, branch).rate_equations
        if rate_equations is None:
            raise ValueError("include_gamma is only defined for the nonadiabatic branch")
        extra = rate_equations(p.gamma)
    return MasterEquation(
        dim=2,
        hamiltonian=None,
        terms=(LindbladTerm(rate=rate, operator=jump),),
        extra_generator=extra,
    )


# --- protected states --------------------------------------------------------
# each takes a time or a 1-d array of N times and returns a ket or an (N, 2) stack


def _ket_path(e, g) -> np.ndarray:
    """Kets ``e|e> + g|g>`` from broadcast amplitudes, along the last axis."""
    return np.stack(np.broadcast_arrays(e, g), axis=-1).astype(complex)


def protected_state_nonadiabatic(p: ModelParams, t) -> np.ndarray:
    """Protected trajectory of the nonadiabatic branch in the bare basis:

    ``cos(phi/2 - omega1 t)|e> + i e^{-i phi1} sin(phi/2 - omega1 t)|g>``.

    This is the instantaneous null eigenvector of the frame-transformed
    jump operator (the ray R(t)|up> with the global dynamical phase
    removed).
    """
    theta = 0.5 * p.phi - p.omega1 * np.asarray(t, dtype=float)
    return _ket_path(np.cos(theta), 1j * np.exp(-1j * p.phi1) * np.sin(theta))


def protected_state_dressed_gauge(p: ModelParams, t) -> np.ndarray:
    """The same protected ray written in the drive-dressed gauge,
    ``[|+> + e^{-i(phi - 2 omega1 t)}|->]/sqrt(2)``; the gauge in which the
    interferometric phase (omega1 + omega2/2) t is defined."""
    phase = np.exp(-1j * (p.phi - 2.0 * p.omega1 * np.asarray(t, dtype=float)))
    return (plus_ket(p.phi1) + np.multiply.outer(phase, minus_ket(p.phi1))) / np.sqrt(2.0)


def protected_state_memory(p: ModelParams, t) -> np.ndarray:
    """Protected stationary-superposition trajectory of the memory branch:

    ``[sqrt(2 + chi)|e> + e^{-i(phi1 - delta1 t)} sqrt(2 - chi)|g>]/2``.
    """
    chi = DerivedMemoryParams.from_params(p).chi
    phase = np.exp(-1j * (p.phi1 - p.delta1 * np.asarray(t, dtype=float)))
    return _ket_path(0.5 * np.sqrt(2.0 + chi), 0.5 * phase * np.sqrt(2.0 - chi))


def drive_interaction_hamiltonian(p: ModelParams) -> Harmonic:
    """Drive Hamiltonian governing the protected trajectory in the
    interaction picture (bare basis):

    ``omega1 (|+><+| - |-><-|) + omega2/2 [e^{i(phi - 2 omega1 t)}|+><-|
    + h.c.]``,

    a harmonic sum at frequencies ``0`` and ``+-2 omega1``.  Equal to
    ``i dR/dt R^dag`` for the composed frame R = U1 U2.
    """
    pk, mk = plus_ket(p.phi1), minus_ket(p.phi1)
    upper = 0.5 * p.omega2 * np.exp(1j * p.phi) * sigma(pk, mk)
    static = p.omega1 * (qmath.projector(pk) - qmath.projector(mk))
    nu = 2.0 * p.omega1
    return Harmonic([0.0, nu, -nu], [static, upper, qmath.dag(upper)])


# --- full two-part model ------------------------------------------------------


def dressed_decay_jump(p: ModelParams, branch: str) -> Harmonic:
    """Spontaneous-emission jump ``|g><e|`` seen from the branch's dressed
    frame ``R W`` (:attr:`Branch.dressed_frame`): ``(R W)^dag |g><e| R W``."""
    return to_frame(branch_of(p, branch).dressed_frame, sigma(ket_g(), ket_e()))


def full_system_master_equation(
    p: ModelParams,
    branch: str = "nonadiabatic",
    *,
    frame: str = "dressed-effective",
    include_gamma: bool = False,
) -> MasterEquation:
    """Master equation of the two-level system plus lossy cavity mode, seen
    from the frame ``F`` of :func:`effective_model`: cavity decay ``1 x a``
    at population rate Gamma (``F`` acts on the two-level factor alone, so it
    leaves that jump as it is) and, with ``include_gamma``, spontaneous
    emission at rate gamma by ``F^dag (|g><e| x 1) F``, which is
    :func:`dressed_decay_jump` ``x 1``.  The Hamiltonian is ``H2``
    (``frame="dressed-effective"``) or ``F^dag H1 F - i F^dag dF/dt`` whole
    (``frame="exact"``), whose time average is ``H2``: the exact arm's states
    are those of ``H1`` with the jumps ``1 x a`` and ``|g><e| x 1``, each
    ``rho(t)`` mapped to ``F(t)^dag rho(t) F(t)``.  Both arms raise
    :class:`RegimeError` off the branch's resonances."""
    if frame not in ("dressed-effective", "exact"):
        raise ValueError(f"unknown frame {frame!r}")
    h1, f, hamiltonian = effective_model(p, branch)
    if frame == "exact":
        hamiltonian = to_frame(f, h1, hamiltonian=True)
    terms = [LindbladTerm(rate=p.Gamma, operator=qmath.kron(np.eye(2), qmath.fock_annihilation(p.n_max)))]
    if include_gamma:
        decay = to_frame(f, qmath.kron(sigma(ket_g(), ket_e()), np.eye(p.n_max + 1)))
        terms.append(LindbladTerm(rate=p.gamma, operator=decay))
    return MasterEquation(dim=2 * (p.n_max + 1), hamiltonian=hamiltonian, terms=tuple(terms))
