import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import reslab
from reslab import lindblad, model, qmath
from reslab.errors import IntegrationDivergenceError, NotHermitianError
from reslab.frames import compare_effective, schroedinger_evolve
from reslab.lindblad import (
    Harmonic,
    LindbladTerm,
    MasterEquation,
    apply_generator,
    evolve,
    liouvillian_matrix,
    steady_state,
    unvec,
    vec,
)
from reslab.phases import dynamic_phase, phase_record

SIGMA_GE = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|, basis (e, g)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0 + 0j])
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def decay_qubit(gamma):
    """Spontaneous decay at population rate gamma."""
    return MasterEquation(dim=2, terms=(LindbladTerm(rate=gamma, operator=SIGMA_GE),))


def random_master_equation(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = h + h.conj().T
    ops = []
    for _ in range(2):
        o = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ops.append(LindbladTerm(rate=rng.uniform(0.1, 2.0), operator=o))
    return MasterEquation(dim=dim, hamiltonian=h, terms=tuple(ops))


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_harmonic_master_equation(rng, dim, nu, jump_nu, rate):
    """Paired harmonic H = H0 + e^{-i nu t} A + e^{i nu t} A^dag and a
    three-component harmonic jump."""
    h0 = random_matrix(rng, dim)
    a = 0.5 * random_matrix(rng, dim)
    h = Harmonic([0.0, nu, -nu], [0.5 * (h0 + h0.conj().T), a, a.conj().T])
    components = [0.5 * random_matrix(rng, dim) for _ in range(3)]
    jump = Harmonic([jump_nu, -0.5 * jump_nu, 0.0], components)
    return MasterEquation(dim=dim, hamiltonian=h, terms=(LindbladTerm(rate, jump),))


def shifted(h, s):
    """``t -> H(t + s)``."""
    return Harmonic(h.frequencies, np.exp(-1j * h.frequencies * s)[:, None, None] * h.matrices)


def direct_rhs(me, rho, t=0.0):
    """Reference ``-i[H, rho] + sum rate/2 (2 O rho O^dag - {O^dag O, rho})``
    from the operators sampled at ``t``, plus the extra generator."""
    out = np.zeros((me.dim, me.dim), dtype=complex)
    h = me.hamiltonian_at(t)
    if h is not None:
        out += -1j * (h @ rho - rho @ h)
    for term in me.terms:
        o = term.operator_at(t)
        odo = o.conj().T @ o
        out += (0.5 * term.rate) * (2.0 * (o @ rho @ o.conj().T) - odo @ rho - rho @ odo)
    if me.extra_generator is not None:
        out += unvec(me.extra_generator @ vec(rho), me.dim)
    return out


class TestVectorization:
    def test_column_stacking(self):
        rho = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.array_equal(vec(rho), np.array([1.0, 3.0, 2.0, 4.0], dtype=complex))
        assert np.array_equal(unvec(vec(rho), 2), rho)

    def test_product_identity(self):
        rng = np.random.default_rng(0)
        a, b, r = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
        lhs = np.kron(b.T, a) @ vec(r)
        assert np.max(np.abs(lhs - vec(a @ r @ b))) < 1e-12


class TestLiouvillian:
    def test_closed_system_form(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = h + h.conj().T
        me = MasterEquation(dim=3, hamiltonian=h, terms=(LindbladTerm(0.0, np.eye(3)),))
        expected = -1j * (np.kron(np.eye(3), h) - np.kron(h.T, np.eye(3)))
        assert np.max(np.abs(liouvillian_matrix(me) - expected)) < 1e-14

    def test_decay_rate_by_hand(self):
        gamma = 0.7
        me = decay_qubit(gamma)
        rhodot = unvec(liouvillian_matrix(me) @ vec(np.diag([1.0, 0.0])), 2)
        # excited population decays at rate gamma, ground grows to match
        assert rhodot[0, 0] == pytest.approx(-gamma)
        assert rhodot[1, 1] == pytest.approx(gamma)
        # hand-built superoperator, column-stacking convention
        odo = qmath.dag(SIGMA_GE) @ SIGMA_GE
        hand = (gamma / 2) * (
            2 * np.kron(SIGMA_GE.conj(), SIGMA_GE)
            - np.kron(np.eye(2), odo)
            - np.kron(odo.T, np.eye(2))
        )
        assert np.max(np.abs(liouvillian_matrix(me) - hand)) < 1e-14

    def test_trace_preservation(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3):
            me = random_master_equation(rng, dim)
            L = liouvillian_matrix(me)
            for _ in range(5):
                rho = random_density(rng, dim)
                assert abs(np.trace(unvec(L @ vec(rho), dim))) < 1e-12

    DRESSED_PARAMS = {
        "nonadiabatic": model.ModelParams(
            g=1.0, omega1=400.0, omega2=20.0, phi1=0.4, phi2=1.1, delta_a=-20.0,
            delta1=0.0, delta2=-800.0, Gamma=20.0, gamma=0.7, n_max=1,
        ),
        "memory": model.ModelParams(
            g=1.0, omega1=float(np.sqrt(16.0**2 - 8.0**2 / 4.0)), omega2=0.0, phi1=0.3,
            delta1=8.0, delta2=0.0, delta_a=-32.0, Gamma=1e6, gamma=0.8, n_max=1,
        ),
    }

    def test_superoperator_matches_direct_rhs(self):
        rng = np.random.default_rng(3)
        equations = [random_master_equation(rng, dim) for dim in (2, 4)]
        equations += [random_harmonic_master_equation(rng, dim, 1.7, 2.9, 0.8) for dim in (2, 3)]
        for branch, p in self.DRESSED_PARAMS.items():
            jump = model.dressed_decay_jump(p, branch)
            terms = (LindbladTerm(p.gamma, jump), LindbladTerm(0.6, SIGMA_GE))
            equations.append(MasterEquation(dim=2, hamiltonian=np.diag([0.5, -0.5]), terms=terms))
        for me in equations:
            for _ in range(5):
                t = rng.uniform(0.0, 0.1)
                rho = random_density(rng, me.dim)
                direct = direct_rhs(me, rho, t)
                assert np.max(np.abs(apply_generator(me, rho, t) - direct)) < 1e-12
                L = liouvillian_matrix(me, t)
                assert np.max(np.abs(unvec(L @ vec(rho), me.dim) - direct)) < 1e-12

    def test_rejects_non_hermitian_hamiltonian(self):
        me = MasterEquation(dim=2, hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitianError):
            liouvillian_matrix(me)

    def test_rejects_unpaired_harmonic_hamiltonian(self):
        # e^{-i t} sigma_x is Hermitian at t = 0 only: its partner at -nu is missing
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        me = MasterEquation(dim=2, hamiltonian=Harmonic([1.0], [sigma_x]))
        with pytest.raises(NotHermitianError):
            liouvillian_matrix(me)

    def test_assembled_once(self):
        me = random_harmonic_master_equation(np.random.default_rng(8), 2, 1.0, 2.0, 0.5)
        assert me.liouvillian is me.liouvillian
        assert me._real_liouvillian is me._real_liouvillian


class TestRealCoordinates:
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_basis_is_unitary_and_real_on_hermitian(self, dim):
        basis = lindblad._hermitian_basis(dim)
        assert np.max(np.abs(basis @ basis.conj().T - np.eye(dim * dim))) < 1e-15
        rng = np.random.default_rng(dim)
        for _ in range(4):
            a = random_matrix(rng, dim)
            x = basis @ vec(a + a.conj().T)
            assert np.max(np.abs(x.imag)) <= 1e-15 * np.max(np.abs(x))

    @pytest.mark.parametrize(
        "generator", ["paired harmonic", "dressed nonadiabatic", "dressed memory", "mixed"]
    )
    def test_real_form_matches_liouvillian(self, generator):
        rng = np.random.default_rng(17)
        if generator == "paired harmonic":
            me = random_harmonic_master_equation(rng, 3, 1.7, 2.9, 0.8)
        elif generator == "mixed":
            # static H and jump next to a harmonic jump
            jump = Harmonic([2.3, -0.7], [random_matrix(rng, 3), random_matrix(rng, 3)])
            me = random_master_equation(rng, 3)
            me = MasterEquation(3, me.hamiltonian, (*me.terms, LindbladTerm(0.8, jump)))
        else:
            branch = generator.removeprefix("dressed ")
            p = TestLiouvillian.DRESSED_PARAMS[branch]
            jump = model.dressed_decay_jump(p, branch)
            terms = (LindbladTerm(p.gamma, jump), LindbladTerm(0.6, SIGMA_GE))
            me = MasterEquation(dim=2, hamiltonian=np.diag([0.5, -0.5]), terms=terms)
        basis = lindblad._hermitian_basis(me.dim)
        for t in rng.uniform(-3.0, 3.0, size=5):
            exact = basis @ me.liouvillian(t) @ basis.conj().T
            assert np.max(np.abs(exact.imag)) <= 1e-12
            assert np.max(np.abs(me._real_liouvillian(t) - exact)) <= 1e-12

    def test_rejects_non_hermiticity_preserving_generator(self):
        # -i [A, .] with a non-Hermitian A keeps the trace but not Hermiticity
        a = 0.3 * SIGMA_GE
        extra = -1j * (np.kron(np.eye(2), a) - np.kron(a.T, np.eye(2)))
        cos_drive = Harmonic([3.0, -3.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X])
        rho0 = qmath.projector(qmath.normalized([1.0, 1.0j]))
        times = np.array([0.0, 0.5, 1.0])
        me = MasterEquation(2, cos_drive, decay_qubit(1.0).terms, extra_generator=extra)
        with pytest.raises(NotHermitianError):
            evolve(me, rho0, times)
        # a static Hamiltonian keeps the exact expm path, which admits it
        me = MasterEquation(2, SIGMA_Z, decay_qubit(1.0).terms, extra_generator=extra)
        traj = evolve(me, rho0, times)
        L = me.liouvillian.matrices[0]
        for t, s in zip(times, traj.states):
            assert np.max(np.abs(vec(s) - scipy.linalg.expm(t * L) @ vec(rho0))) < 1e-12


class TestEvolve:
    def test_exponential_decay(self):
        gamma = 1.3
        me = decay_qubit(gamma)
        times = np.linspace(0.0, 4.0 / gamma, 21)
        traj = evolve(me, np.diag([1.0, 0.0 + 0j]), times)
        pops = np.array([np.real(s[0, 0]) for s in traj.states])
        assert np.max(np.abs(pops - np.exp(-gamma * times))) < 1e-7

    def test_closed_static(self):
        me = MasterEquation(dim=2, hamiltonian=np.zeros((2, 2)))
        rho0 = qmath.projector(qmath.normalized([1.0, 1.0]))
        traj = evolve(me, rho0, np.linspace(0.0, 5.0, 6))
        for s in traj.states:
            assert np.max(np.abs(s - rho0)) < 1e-12

    def test_engineered_pump_relaxation(self):
        # pump |down> -> |up> at population rate R; rho_uu = 1 - exp(-R t)
        rate = 0.9
        jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        me = MasterEquation(dim=2, terms=(LindbladTerm(rate=rate, operator=jump),))
        times = np.linspace(0.0, 3.0 / rate, 16)
        traj = evolve(me, np.diag([0.0, 1.0 + 0j]), times)
        uu = np.array([np.real(s[0, 0]) for s in traj.states])
        assert np.max(np.abs(uu - (1.0 - np.exp(-rate * times)))) < 1e-6

    def test_time_dependent_commuting_oracle(self):
        # H(t) = (A/2) cos(nu t) sigma_z: coherence phase exp(-i A sin(nu t)/nu)
        amp, nu = 2.0, 3.0
        half_cos = 0.25 * amp * np.diag([1.0, -1.0 + 0j])
        me = MasterEquation(dim=2, hamiltonian=Harmonic([nu, -nu], [half_cos, half_cos]))
        rho0 = qmath.projector(qmath.normalized([1.0, 1.0]))
        times = np.linspace(0.0, 2.0, 9)
        traj = evolve(me, rho0, times)
        for t, s in zip(times, traj.states):
            expected = 0.5 * np.exp(-1j * amp * np.sin(nu * t) / nu)
            assert abs(s[0, 1] - expected) < 1e-7

    def test_grid_validation(self):
        me = decay_qubit(1.0)
        rho0 = np.diag([1.0, 0.0 + 0j])
        with pytest.raises(ValueError):
            evolve(me, rho0, [1.0, 2.0])
        with pytest.raises(ValueError):
            evolve(me, rho0, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            evolve(me, np.diag([0.9, 0.0 + 0j]), [0.0, 1.0])

    def test_single_time_grid(self):
        rho0 = qmath.projector(qmath.normalized([1.0, 1.0j]))
        traj = evolve(decay_qubit(1.0), rho0, [0.0])
        assert len(traj.states) == 1 and np.array_equal(traj.final, rho0)

    def test_static_matches_expm(self):
        rng = np.random.default_rng(9)
        me = random_master_equation(rng, 3)
        rho0 = random_density(rng, 3)
        times = np.array([0.0, 0.3, 0.7, 1.5])
        traj = evolve(me, rho0, times)
        L = liouvillian_matrix(me)
        for t, s in zip(times, traj.states):
            assert np.max(np.abs(vec(s) - scipy.linalg.expm(t * L) @ vec(rho0))) < 1e-12

    def test_uniform_grid_builds_one_map(self, monkeypatch):
        # linspace spacings differ in their last bits; they still share one
        # exponential, built in the one pass, and the states stay exact
        built = []
        expm, interval_map = scipy.linalg.expm, lindblad._expm
        monkeypatch.setattr(lindblad, "_expm", lambda a: built.append(1) or interval_map(a))
        rng = np.random.default_rng(12)
        me = random_master_equation(rng, 3)
        rho0 = random_density(rng, 3)
        times = np.linspace(0.0, 1.3, 401)
        assert len(set(np.diff(times))) > 1
        traj = evolve(me, rho0, times)
        assert len(built) == 1
        L = liouvillian_matrix(me)
        for i in (1, 200, 400):
            exact = expm(times[i] * L) @ vec(rho0)
            assert np.max(np.abs(vec(traj.states[i]) - exact)) < 1e-12

    @pytest.mark.parametrize(
        "times",
        [np.linspace(0.0, 1.3, 41), np.array([0.0, 0.2, 0.4, 0.6, 1.1, 1.6, 2.1])],
        ids=["linspace", "two-interval-lengths"],
    )
    def test_static_states_are_one_stack(self, times, monkeypatch):
        built = []
        expm, interval_map = scipy.linalg.expm, lindblad._expm
        monkeypatch.setattr(lindblad, "_expm", lambda a: built.append(1) or interval_map(a))
        rng = np.random.default_rng(13)
        me = random_master_equation(rng, 3)
        rho0 = random_density(rng, 3)
        traj = evolve(me, rho0, times)
        assert isinstance(traj.states, np.ndarray) and traj.states.shape == (times.size, 3, 3)
        # one map per distinct interval length, and one step per interval
        assert len(built) == len(set(np.round(np.diff(times), 12)))
        assert np.array_equal(traj.substeps, np.ones(times.size - 1))
        # the intervals applied one after another, each by its own exponential
        L = me.liouvillian.matrices[0]
        v = rho0.flatten(order="F")
        expected = [rho0]
        for dt in np.diff(times):
            v = expm(dt * L) @ v
            expected.append(v.reshape(3, 3, order="F"))
        assert np.max(np.abs(traj.states - np.array(expected))) < 1e-13
        assert np.array_equal(traj.states[0], rho0) and np.array_equal(traj.final, traj.states[-1])

    @pytest.mark.parametrize(
        "times, lengths",
        [
            (np.linspace(0.0, 20.0, 40001), 1),
            # runs of 2^-10, 2^-6, 2^-10 and 0.5: exact binary lengths, three distinct
            (np.cumsum(np.repeat([0, 2**-10, 2**-6, 2**-10, 0.5], [1, 3000, 200, 1000, 10])), 3),
            # shifted linspaces: three classes of lengths that differ in their last bits
            (
                np.concatenate([
                    np.linspace(0, 5, 1001)[:-1],
                    5.0 + np.linspace(0, 1, 5001)[:-1],
                    6.0 + np.linspace(0, 0.2, 1001)[:-1],
                    6.2 + np.linspace(0, 3, 316),
                ]),
                3,
            ),
        ],
        ids=["linspace-40001", "runs", "shifted-linspaces"],
    )
    def test_static_long_grids_match_the_closed_form(self, times, lengths, monkeypatch):
        # a qubit precessing at omega and decaying at population rate gamma:
        # rho_ee(t) = rho_ee(0) e^{-gamma t}, rho_eg(t) = rho_eg(0) e^{-(i omega + gamma/2) t}
        omega, gamma, ee, eg = 5.0, 0.3, 0.7, 0.3 - 0.2j
        me = MasterEquation(2, 0.5 * omega * SIGMA_Z, decay_qubit(gamma).terms)
        rho0 = np.array([[ee, eg], [np.conj(eg), 1.0 - ee]])
        built, passes = [], []
        interval_map, integrate = lindblad._expm, lindblad._integrate
        monkeypatch.setattr(lindblad, "_expm", lambda a: built.append(1) or interval_map(a))
        monkeypatch.setattr(lindblad, "_integrate", lambda *a: passes.append(1) or integrate(*a))
        traj = evolve(me, rho0, times)
        assert len(passes) == 1 and traj.refinements == 0 and len(built) == lengths
        assert traj.method == "expm" and np.array_equal(traj.substeps, np.ones(times.size - 1))
        decay = ee * np.exp(-gamma * times)
        coherence = eg * np.exp(-(1j * omega + gamma / 2.0) * times)
        closed = np.stack([decay, coherence, coherence.conj(), 1.0 - decay], -1).reshape(-1, 2, 2)
        # measured: 3.6e-14 (linspace), 3.9e-14 (runs) and 2.9e-14 (shifted
        # linspaces; 1.8e-12 when each class took its first interval's length)
        assert np.max(np.abs(traj.states - closed)) <= 1e-13

    def test_harmonic_states_are_one_stack(self):
        me = random_harmonic_master_equation(np.random.default_rng(14), 2, 2.3, 1.1, 0.4)
        rho0 = random_density(np.random.default_rng(15), 2)
        traj = evolve(me, rho0, np.linspace(0.0, 1.0, 5))
        assert isinstance(traj.states, np.ndarray) and traj.states.shape == (5, 2, 2)
        assert np.array_equal(traj.states[0], rho0)

    def test_trace_breaking_generator_fails_the_drift_check(self):
        # a converged trajectory whose trace decays as exp(-0.1 t) is still rejected
        me = MasterEquation(dim=2, extra_generator=-0.1 * np.eye(4))
        with pytest.raises(IntegrationDivergenceError) as raised:
            evolve(me, np.diag([1.0, 0.0 + 0j]), np.linspace(0.0, 1.0, 11))
        assert raised.value.achieved <= 1e-8  # the states are exact; the trace did not hold
        drift_free = MasterEquation(dim=2, extra_generator=np.zeros((4, 4)))
        assert evolve(drift_free, np.diag([1.0, 0.0 + 0j]), np.linspace(0.0, 1.0, 11)).refinements == 0

    def test_magnus_step_is_fourth_order(self):
        me = random_harmonic_master_equation(np.random.default_rng(10), 3, 1.7, 2.9, 0.8)
        rho0 = random_density(np.random.default_rng(11), 3)
        times = np.array([0.0, 1.0])
        exact = lindblad._integrate(me, rho0, times, [512])[-1]
        coarse, fine = (
            np.linalg.norm(lindblad._integrate(me, rho0, times, [k])[-1] - exact) for k in (8, 16)
        )
        assert coarse >= 12.0 * fine

    @pytest.mark.parametrize("norm", [1e-6, 1e-2, 0.3, 2.0, 10.0, 50.0])
    @pytest.mark.parametrize(
        "operand",
        ["vector", "block", "identity", "real vector", "real block", "real identity"],
    )
    def test_taylor_action_matches_expm(self, norm, operand):
        # Liouvillian-shaped exponents scaled to the given 1-norm, complex or
        # in real coordinates; a stack of three applies in order, the first one last
        rng = np.random.default_rng(14)
        me = random_harmonic_master_equation(rng, 3, 1.7, 2.9, 0.8)
        real = operand.startswith("real")
        generator = me._real_liouvillian if real else me.liouvillian
        omegas = generator(np.array([0.2, 0.9, 1.4]))
        omegas *= norm / np.max(np.sum(np.abs(omegas), axis=1))
        columns = random_matrix(rng, 9)
        columns = columns.real if real else columns
        v = {"vector": columns[:, 0], "block": columns[:, :4], "identity": np.eye(9)}[
            operand.removeprefix("real ")
        ]
        for stack in (omegas[:1], omegas):
            exact = v
            for omega in stack:
                exact = scipy.linalg.expm(omega) @ exact
            error = np.linalg.norm(lindblad._exp_action(stack, v) - exact)
            assert error <= 1e-13 * np.linalg.norm(exact)

    @pytest.mark.parametrize("norm", [1e-6, 1e-2, 0.3, 2.0, 10.0, 50.0, 300.0, 1000.0])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_interval_map_matches_expm(self, norm, real):
        # a Liouvillian-shaped exponent scaled to the given 1-norm, complex or in
        # real coordinates; norms above 4 are scaled down and squared
        me = random_harmonic_master_equation(np.random.default_rng(16), 3, 1.7, 2.9, 0.8)
        a = (me._real_liouvillian if real else me.liouvillian)(0.6)
        a *= norm / np.max(np.sum(np.abs(a), axis=0))
        exact = scipy.linalg.expm(a)
        error = np.linalg.norm(lindblad._expm(a) - exact)
        # measured: at most 8.2e-16 up to norm 50, 1.1e-14 at 300 and 1000
        assert error <= (1e-14 if norm <= 50.0 else 1e-13) * np.linalg.norm(exact)

    def test_time_dependent_steps_form_no_exponential(self, monkeypatch):
        # each pass evaluates the real form of L once per interval and applies
        # every step to the state
        rng = np.random.default_rng(13)
        me = random_harmonic_master_equation(rng, 3, 1.7, 2.9, 0.8)
        R = me._real_liouvillian
        built, evaluated = [], []
        interval_map, evaluate = lindblad._expm, lindblad._RealGenerator.__call__
        monkeypatch.setattr(lindblad, "_expm", lambda a: built.append(1) or interval_map(a))
        monkeypatch.setattr(
            lindblad._RealGenerator,
            "__call__",
            lambda op, t: evaluated.append(op is R) or evaluate(op, t),
        )
        times = np.linspace(0.0, 1.0, 5)
        traj = evolve(me, random_density(rng, 3), times)
        assert traj.refinements >= 1 and traj.method == "magnus-4"
        assert built == []
        assert evaluated == [True] * (len(times) - 1) * (traj.refinements + 1)

    def test_interval_blocks_match_one_block(self, monkeypatch):
        me = random_harmonic_master_equation(np.random.default_rng(15), 3, 1.7, 2.9, 0.8)
        rho0 = random_density(np.random.default_rng(16), 3)
        times = np.array([0.0, 0.6, 1.0])
        whole = lindblad._integrate(me, rho0, times, [40, 40])
        monkeypatch.setattr(lindblad, "_MAX_BLOCK", 16)
        blocks = lindblad._integrate(me, rho0, times, [40, 40])
        for a, b in zip(whole, blocks):
            assert np.max(np.abs(a - b)) < 1e-13

    def test_divergence_error_carries_residual(self):
        # a static generator's interval map is exact, so the refinement loop
        # is driven by a harmonic one that does not commute with the decay
        cos_drive = Harmonic([3.0, -3.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X])  # cos(3t) sigma_x
        me = MasterEquation(dim=2, hamiltonian=cos_drive, terms=decay_qubit(1.0).terms)
        with pytest.raises(IntegrationDivergenceError) as err:
            evolve(me, np.diag([1.0, 0.0 + 0j]), [0.0, 1.0], tol=1e-30)
        assert np.isfinite(err.value.achieved) and err.value.achieved > 1e-30

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_non_finite_step_is_a_divergence(self):
        # decay at 1e200 over 1e200: the interval's exponent overflows
        with pytest.raises(IntegrationDivergenceError) as err:
            evolve(decay_qubit(1e200), np.diag([1.0, 0.0 + 0j]), [0.0, 1e200])
        assert not np.isfinite(err.value.achieved)

    def test_uncountable_first_steps_are_a_divergence(self):
        # a drive at 1e200 rad/s over 1 s: no 64-bit count of first steps, in
        # either integrator
        fast = Harmonic([1e200, -1e200], [0.5 * SIGMA_X, 0.5 * SIGMA_X])
        me = MasterEquation(dim=2, hamiltonian=fast, terms=decay_qubit(1.0).terms)
        with pytest.raises(IntegrationDivergenceError, match="below 2\\*\\*63"):
            evolve(me, np.diag([1.0, 0.0 + 0j]), [0.0, 1.0])
        with pytest.raises(IntegrationDivergenceError, match="below 2\\*\\*63"):
            schroedinger_evolve(1e200 * SIGMA_X, [1.0, 0.0], [0.0, 1.0])

    def test_both_integrators_share_the_refinement_cap(self, monkeypatch):
        monkeypatch.setattr(lindblad, "_MAX_REFINEMENTS", 2)
        passes = {"evolve": 0, "schroedinger": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                passes[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(lindblad, "_integrate", counted(lindblad._integrate, "evolve"))
        monkeypatch.setattr(
            reslab.frames, "_propagators", counted(reslab.frames._propagators, "schroedinger")
        )
        cos_drive = Harmonic([3.0, -3.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X])
        me = MasterEquation(dim=2, hamiltonian=cos_drive, terms=decay_qubit(1.0).terms)
        with pytest.raises(IntegrationDivergenceError):
            evolve(me, np.diag([1.0, 0.0 + 0j]), [0.0, 1.0], tol=1e-30)
        with pytest.raises(IntegrationDivergenceError):
            schroedinger_evolve(cos_drive, [1.0, 0.0], [0.0, 1.0], tol=1e-30)
        # the first pass and two doublings
        assert passes == {"evolve": 3, "schroedinger": 3}

    def test_trajectory_state_invariants(self):
        rng = np.random.default_rng(4)
        me = random_master_equation(rng, 3)
        traj = evolve(me, random_density(rng, 3), np.linspace(0.0, 2.0, 11))
        for s in traj.states:
            assert abs(np.trace(s) - 1.0) < 1e-9
            assert qmath.hermitian_defect(s) < 1e-9
            assert np.min(np.linalg.eigvalsh(0.5 * (s + qmath.dag(s)))) > -1e-7

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(
        dim=st.integers(2, 3),
        nu=st.floats(0.2, 4.0),
        jump_nu=st.floats(0.2, 4.0),
        rate=st.floats(0.05, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_harmonic_generators_keep_states_physical(self, dim, nu, jump_nu, rate, seed):
        rng = np.random.default_rng(seed)
        me = random_harmonic_master_equation(rng, dim, nu, jump_nu, rate)
        rho0 = 0.5 * random_density(rng, dim) + 0.5 * np.eye(dim) / dim
        traj = evolve(me, rho0, np.linspace(0.0, 1.0, 5))
        for s in traj.states:
            assert abs(np.trace(s) - 1.0) <= 1e-9
            assert qmath.hermitian_defect(s) <= 1e-10
            assert np.min(np.linalg.eigvalsh(0.5 * (s + qmath.dag(s)))) >= -1e-9


class TestUnitaryHarmonicEvolve:
    """Closed harmonic Hamiltonians against the Schroedinger equation."""

    def test_unitarity(self):
        # cos(3t) sigma_x + sigma_z
        h = Harmonic([3.0, -3.0, 0.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X, SIGMA_Z])
        times = np.linspace(0.0, 2.0, 5)
        for psi0 in ([1.0, 0.0], [1.0, 1.0j], [0.3, -0.8]):
            psi0 = qmath.normalized(psi0)
            traj = evolve(MasterEquation(dim=2, hamiltonian=h), qmath.projector(psi0), times)
            for s, psi in zip(traj.states, schroedinger_evolve(h, psi0, times)[0]):
                assert abs(np.trace(s @ s) - 1.0) < 1e-10
                assert np.max(np.abs(s - qmath.projector(psi))) < 1e-8

    def test_half_interval_composition(self):
        # cos(2t) sigma_x + sin(t) sigma_z
        h = Harmonic(
            [2.0, -2.0, 1.0, -1.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X, 0.5j * SIGMA_Z, -0.5j * SIGMA_Z]
        )
        T = 1.0
        rho0 = qmath.projector(qmath.normalized([1.0, 0.5 - 0.5j]))
        whole = evolve(MasterEquation(dim=2, hamiltonian=h), rho0, [0.0, T]).final
        first = evolve(MasterEquation(dim=2, hamiltonian=h), rho0, [0.0, T / 2]).final
        second = evolve(MasterEquation(dim=2, hamiltonian=shifted(h, T / 2)), first, [0.0, T / 2])
        assert np.max(np.abs(whole - second.final)) < 1e-8
        psi = schroedinger_evolve(h, qmath.normalized([1.0, 0.5 - 0.5j]), [0.0, T])[0][-1]
        assert np.max(np.abs(whole - qmath.projector(psi))) < 1e-8


class TestFullModelReference:
    def test_final_states_match_recorded_reference(self):
        # the benchmark's full-model inputs and its final states recorded at
        # the seed commit; read, never written
        sys.path.insert(0, str(BENCHMARKS))
        try:
            import workloads
        finally:
            sys.path.remove(str(BENCHMARKS))
        reference = json.loads(workloads.REFERENCE.read_text())
        recorded = reference["full-model"]["tiny"]
        assert len(recorded) >= 4
        for phases, (real, imag) in zip(reference["phases"], recorded):
            traj = evolve(*workloads.full_model_inputs(reslab, phases, "tiny"))
            assert np.linalg.norm(traj.final - (np.array(real) + 1j * np.array(imag))) <= 1e-7


class TestSteadyState:
    def test_decay_only(self):
        rho, _ = steady_state(decay_qubit(0.8))
        assert qmath.trace_distance(rho, np.diag([0.0, 1.0])) < 1e-12

    def test_residual_contract(self):
        me = decay_qubit(2.0)
        rho, info = steady_state(me)
        assert info.residual <= 1e-9
        assert np.linalg.norm(apply_generator(me, rho)) < 1e-9

    def test_degenerate_null_space(self):
        me = MasterEquation(dim=2, hamiltonian=np.diag([1.0, -1.0 + 0j]))
        rho, info = steady_state(me)
        assert info.degenerate and info.null_dimension == 2
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12

    def test_zero_frequency_harmonic(self):
        # a harmonic whose frequencies merge to zero is static; a periodic one is not
        h0, h1 = np.diag([1.0, -1.0 + 0j]), 0.3 * SIGMA_X
        terms = decay_qubit(0.8).terms
        static, _ = steady_state(MasterEquation(dim=2, hamiltonian=h0 + h1, terms=terms))
        merged = MasterEquation(dim=2, hamiltonian=Harmonic([0.0, 0.0], [h0, h1]), terms=terms)
        assert np.max(np.abs(steady_state(merged)[0] - static)) < 1e-14
        periodic = MasterEquation(dim=2, hamiltonian=Harmonic([0.0, 1.0, -1.0], [h0, h1, h1]))
        with pytest.raises(ValueError):
            steady_state(periodic)

    def test_long_time_agreement(self):
        # slowest relaxation mode is the coherence at gamma/2; by t = 20/(gamma/2)
        # the trajectory parks on the fixed point
        gamma = 0.5
        me = decay_qubit(gamma)
        rho0 = qmath.projector(qmath.normalized([1.0, 1.0j]))
        traj = evolve(me, rho0, np.linspace(0.0, 40.0 / gamma, 11))
        assert qmath.trace_distance(traj.final, steady_state(me)[0]) < 1e-5


class TestResidual:
    def test_decay_magnitude(self):
        gamma = 1.7
        rhodot = apply_generator(decay_qubit(gamma), np.diag([1.0, 0.0]))
        assert np.linalg.norm(rhodot) == pytest.approx(gamma * np.sqrt(2.0))

    def test_closed_eigenstate(self):
        me = MasterEquation(dim=2, hamiltonian=np.diag([1.0, -1.0 + 0j]))
        assert np.linalg.norm(apply_generator(me, np.diag([1.0, 0.0]))) < 1e-12

    def test_zero_rate_terms_ignored(self):
        me = MasterEquation(
            dim=2,
            hamiltonian=np.zeros((2, 2)),
            terms=(LindbladTerm(rate=0.0, operator=SIGMA_GE),),
        )
        assert np.linalg.norm(apply_generator(me, np.eye(2) / 2)) == 0.0


class TestHarmonic:
    def test_evaluates_fourier_sum(self):
        rng = np.random.default_rng(6)
        nus = [2.0, -0.5, 7.0]
        mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in nus]
        op = Harmonic(nus, mats)
        for t in (0.0, 0.3, 2.9):
            direct = sum(np.exp(-1j * nu * t) * a for nu, a in zip(nus, mats))
            assert np.max(np.abs(op(t) - direct)) < 1e-12

    def test_grid_matches_scalar_calls(self):
        # one (N, K) x (K, d*d) product against N (K,) x (K, d*d) ones: BLAS
        # rounds the two shapes differently, so agreement is to rounding
        rng = np.random.default_rng(8)
        nus = [3.0, -3.0, 0.0, 11.5]
        mats = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        op = Harmonic(nus, mats)
        times = np.linspace(-0.4, 2.0, 37)
        grid = op(times)
        assert grid.shape == (37, 3, 3)
        singles = np.array([op(t) for t in times])
        assert np.max(np.abs(grid - singles)) <= 4 * np.finfo(float).eps * np.sum(np.abs(mats))

    def test_merges_equal_frequencies(self):
        op = Harmonic([1.0, -1.0, 1.0 + 1e-13, 0.0], [SIGMA_GE, SIGMA_GE, 2.0 * SIGMA_GE, SIGMA_GE])
        assert np.array_equal(op.frequencies, [-1.0, 0.0, 1.0 + 5e-14])
        assert np.max(np.abs(op.matrices[2] - 3.0 * SIGMA_GE)) == 0.0

    @pytest.mark.parametrize(
        "make, period",
        [
            # effective-check's defaults: +-1e6 and +-4e7 rad/s
            (lambda: model.build_h1(model.ModelParams()), 2.0 * np.pi / 1e6),
            # criterion 5's nonadiabatic parameters: +-20 and +-800
            (
                lambda: model.build_h1(
                    model.ModelParams(
                        g=1.0, omega1=400.0, omega2=20.0, delta1=0.0, delta2=-800.0,
                        delta_a=-20.0, Gamma=20.0, gamma=0.0,
                    )
                ),
                2.0 * np.pi / 20.0,
            ),
            # the memory branch repeats with |delta_a| = 2 lambda
            (
                lambda: model.build_h1_memory(
                    model.ModelParams(
                        g=1.0, omega1=float(np.sqrt(200.0**2 - 100.0**2)), omega2=0.0,
                        delta1=200.0, delta2=0.0, delta_a=-400.0, Gamma=20.0, gamma=0.0,
                    )
                ),
                2.0 * np.pi / 400.0,
            ),
            # ratios that carry rounding: 1 / (1/3) is not exactly 3
            (lambda: Harmonic([1.0 / 3.0, 1.0], [SIGMA_GE, SIGMA_GE]), 6.0 * np.pi),
            (lambda: Harmonic([-0.5, 1.0 / 3.0, 0.0], [SIGMA_GE] * 3), 12.0 * np.pi),
            (lambda: Harmonic([0.1, 0.3, 0.7], [SIGMA_GE] * 3), 20.0 * np.pi),
            (lambda: Harmonic([0.0], [SIGMA_GE]), None),
            (lambda: Harmonic([1.0, np.sqrt(2.0)], [SIGMA_GE, SIGMA_GE]), None),
            (lambda: Harmonic([1.0, np.pi], [SIGMA_GE, SIGMA_GE]), None),
        ],
    )
    def test_period(self, make, period):
        op = make()
        if period is None:
            assert op.period is None
            return
        assert op.period == pytest.approx(period, rel=1e-14)
        # every component returns to its phase after one period
        assert np.max(np.abs(op(op.period) - op(0.0))) <= 1e-12 * np.sum(np.abs(op.matrices))
        assert op.period is op.period  # cached


class TestLindbladTermValidation:
    def test_negative_rate(self):
        with pytest.raises(ValueError):
            LindbladTerm(rate=-1.0, operator=SIGMA_GE)

    def test_rejects_sampler_closures(self):
        with pytest.raises(TypeError):
            LindbladTerm(rate=1.0, operator=lambda t: SIGMA_GE)
        with pytest.raises(TypeError):
            MasterEquation(dim=2, hamiltonian=lambda t: np.eye(2))
        sampler = lambda t: SIGMA_Z  # noqa: E731
        times = np.linspace(0.0, 1.0, 3)
        kets = np.tile(qmath.basis_ket(2, 0), (3, 1))
        with pytest.raises(TypeError):
            dynamic_phase(kets, times, sampler)
        with pytest.raises(TypeError):
            phase_record(kets, times, sampler)
        with pytest.raises(TypeError):
            schroedinger_evolve(sampler, kets[0], times)
        with pytest.raises(TypeError):
            compare_effective(SIGMA_Z, SIGMA_Z, kets[0], times, frame=lambda t: np.eye(2))
