import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import reslab
from reslab import lindblad, model, qmath
from reslab.errors import IntegrationDivergenceError, NotHermitianError, SteadyStateError
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


def magnus_step_bytes(me):
    """The bytes one Magnus step of ``me`` counts against ``_BLOCK_BYTES``: four
    n x n real matrices, R's phase arrays and their weights on three rows (18
    per frequency) and n more floats."""
    R = me._real_liouvillian
    n = R.matrices.shape[-1]
    return 8 * (4 * n * n + 18 * R.frequencies.size + n)


def magnus_step_norms(monkeypatch, R, points, counts):
    """Every step's measured ``||Omega||_1`` and the norm that ``_magnus_pass``
    sets its Taylor degree by, recorded from the pass's own ``_exp_action``
    calls: those on its vector operand, not those of ``_expm`` on the identity."""
    measured, applied = [], []
    apply = lindblad._exp_action

    def spy(omegas, v, norms=None, *rest):
        if np.ndim(v) == 1:
            measured.append(np.linalg.norm(omegas, 1, axis=(1, 2)))
            applied.append(np.array(norms))
        return apply(omegas, v, norms, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "_exp_action", spy)
        lindblad._magnus_pass(R, points, np.asarray(counts), np.ones(R.matrices.shape[-1]))
    measured, applied = np.concatenate(measured), np.concatenate(applied)
    assert measured.size == np.sum(counts)
    return measured, applied


def block_engine_case(monkeypatch):
    """A d = 3 harmonic generator, a state, and five intervals of 3, 7, 1, 12
    and 2 steps run in blocks of 5 steps."""
    me = random_harmonic_master_equation(np.random.default_rng(17), 3, 1.7, 2.9, 0.8)
    rho0 = random_density(np.random.default_rng(18), 3)
    times = np.array([0.0, 0.2, 0.5, 0.6, 1.3, 1.5])
    counts = np.array([3, 7, 1, 12, 2])
    monkeypatch.setattr(lindblad, "_BLOCK_BYTES", 5 * magnus_step_bytes(me))
    return me, rho0, times, counts


def per_interval_steps(R, times, counts, x):
    """The reference for ``_magnus_pass``: each interval's exponents, the
    integral of R over each step (its harmonics weighted by
    h sinc(nu h / 2) at the step's midpoint) plus [B_2, B_1] / sqrt 3 with
    B_i = (h/2) R on the step's Gauss nodes, written out, and applied to ``x``
    interval by interval at the Taylor degrees of the bound
    h ||R|| + (sqrt(3)/6) (h ||R||)^2, or of the measured 1-norm where that
    bound passes the table. Returns the operand at each interval's end."""
    xs = []
    for t, dt, k in zip(times, np.diff(times), counts):
        h = dt / k
        nodes = 0.5 + np.array([0.0, -1.0, 1.0]) * np.sqrt(3.0) / 6.0  # the midpoint, then Gauss
        rows = (t + h * np.arange(k))[:, None] + h * nodes
        weights = np.empty((3, R.frequencies.size))
        weights[0] = h * np.sinc(h / (2.0 * np.pi) * R.frequencies)
        weights[1:] = np.array([[0.5 / np.sqrt(3.0)], [0.5]]) * h  # B_1 / sqrt 3 and B_2
        b = R(rows, weights)
        integral, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
        omegas = integral + b2 @ b1 - b1 @ b2
        hr = h * R.norm_bound
        norm = hr + np.sqrt(3.0) / 6.0 * hr * hr
        if norm > lindblad._TAYLOR_THETA[-1]:
            norm = np.linalg.norm(omegas, 1, axis=(1, 2))
        x = lindblad._exp_action(omegas, x, np.broadcast_to(norm, k))
        xs.append(x)
    return xs


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

    def test_superoperator_is_the_sum_of_its_pair_terms(self):
        # the pair terms of one component are built at once; each frequency still
        # adds its pairs (k, l) in order from zero, as one np.kron per pair would
        rng = np.random.default_rng(9)
        jump = Harmonic([-1.0, 0.0, 1.0], [random_matrix(rng, 3) for _ in range(3)])
        expected, eye = {}, np.eye(3)
        for (k, l), nu in np.ndenumerate(np.subtract.outer(jump.frequencies, jump.frequencies)):
            a, b = jump.matrices[k], jump.matrices[l]
            bda = b.conj().T @ a
            pair = 0.35 * (2.0 * np.kron(b.conj(), a) - np.kron(eye, bda) - np.kron(bda.T, eye))
            expected[nu] = expected.get(nu, np.zeros((9, 9), dtype=complex)) + pair
        superop = LindbladTerm(0.7, jump).superoperator()
        assert superop.frequencies.tolist() == sorted(expected)
        for nu, matrix in zip(superop.frequencies, superop.matrices):
            assert matrix.tobytes() == expected[nu].tobytes()

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

    def test_basis_is_shared_and_read_only(self):
        basis = lindblad._hermitian_basis(3)
        assert lindblad._hermitian_basis(3) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0

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
        # a static Hamiltonian's exact maps are taken in the same real coordinates
        me = MasterEquation(2, SIGMA_Z, decay_qubit(1.0).terms, extra_generator=extra)
        with pytest.raises(NotHermitianError):
            evolve(me, rho0, times)


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

    def test_static_states_are_exactly_hermitian(self):
        # the elimination check's full model on its grid: its static maps act on
        # real coordinates, so every state maps back exactly Hermitian
        p = model.ModelParams()
        me = model.full_system_master_equation(p)
        assert not np.any(me.liouvillian.frequencies)
        times = np.linspace(0.0, 5.0 / model.engineered_rate(p), 201)
        rho0 = qmath.projector(np.kron(qmath.basis_ket(2, 1), qmath.basis_ket(p.n_max + 1, 0)))
        states = evolve(me, rho0, times).states
        assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) == 0.0

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
        # a converged trajectory whose trace decays as exp(-0.1 t) is still rejected;
        # the states are exact, and the error carries the drift against 1e-9
        me = MasterEquation(dim=2, extra_generator=-0.1 * np.eye(4))
        with pytest.raises(IntegrationDivergenceError, match="trace drifted") as raised:
            evolve(me, np.diag([1.0, 0.0 + 0j]), np.linspace(0.0, 1.0, 11))
        assert raised.value.achieved == pytest.approx(1.0 - np.exp(-0.1), rel=1e-12)
        assert raised.value.target == 1e-9
        drift_free = MasterEquation(dim=2, extra_generator=np.zeros((4, 4)))
        assert evolve(drift_free, np.diag([1.0, 0.0 + 0j]), np.linspace(0.0, 1.0, 11)).refinements == 0

    def test_magnus_step_is_fourth_order(self):
        me = random_harmonic_master_equation(np.random.default_rng(10), 3, 1.7, 2.9, 0.8)
        rho0 = random_density(np.random.default_rng(11), 3)
        times = np.array([0.0, 1.0])
        split = lindblad._split(me.liouvillian, times)
        exact = lindblad._integrate(me, rho0, times, split, [512])[-1]
        coarse, fine = (
            np.linalg.norm(lindblad._integrate(me, rho0, times, split, [k])[-1] - exact)
            for k in (8, 16)
        )
        assert coarse >= 12.0 * fine

    def test_commuting_harmonics_take_one_exact_step(self):
        # a diagonal harmonic Hamiltonian and a diagonal harmonic jump: every L(t)
        # commutes with every other, so the step's exponent is the integral of L
        # alone, and one step across 15 to 33 rad of each harmonic is exp(int L)
        # (measured: 3.5e-17; 0.15 with the Gauss sum in place of the integral)
        h = Harmonic(
            [0.0, 7.0, -7.0, 11.0, -11.0],
            [np.diag([0.4, -0.3, 0.1]), *[np.diag(a) for a in ([0.5, 0.2j, -0.1], [0.5, -0.2j, -0.1])],
             *[np.diag(a) for a in ([0.1j, 0.3, 0.2], [-0.1j, 0.3, 0.2])]],
        )
        jump = Harmonic([0.0, 5.0], [np.diag([0.3, -0.2, 0.5]), np.diag([0.4j, 0.1, -0.2])])
        me = MasterEquation(dim=3, hamiltonian=h, terms=(LindbladTerm(0.6, jump),))
        rho0 = random_density(np.random.default_rng(23), 3)
        t = 3.0
        L = me.liouvillian
        # int_0^t exp(-i nu s) ds, written out
        nu = np.where(L.frequencies == 0.0, 1.0, L.frequencies)
        factors = np.where(L.frequencies == 0.0, t, (1.0 - np.exp(-1j * nu * t)) / (1j * nu))
        exact = scipy.linalg.expm(np.tensordot(factors, L.matrices, axes=1)) @ vec(rho0)
        R = me._real_liouvillian
        x = lindblad._magnus_pass(R, np.array([0.0, t]), np.array([1]), (R.basis @ vec(rho0)).real)
        assert np.max(np.abs(x[-1] @ R.basis.conj() - exact)) <= 1e-14

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

    def test_exponents_past_the_taylor_table_are_formed(self, monkeypatch):
        # a stiff step of 1-norm 1e4 would take a thousand degree-55 segments:
        # its exponential is formed once by scaling and squaring instead, and
        # the small step beside it keeps its series
        rng = np.random.default_rng(20)
        generator = random_harmonic_master_equation(rng, 3, 1.7, 2.9, 0.8)._real_liouvillian
        omegas = generator(np.array([0.3, 1.1]))
        norms = np.max(np.sum(np.abs(omegas), axis=1), axis=1)
        omegas *= (np.array([1e4, 0.5]) / norms)[:, None, None]
        # a decaying exponent, so that exp(Omega) v stays in range
        omegas[0] -= 1e4 * np.eye(9)
        v = rng.normal(size=9)
        formed = []
        interval_map = lindblad._expm
        monkeypatch.setattr(lindblad, "_expm", lambda a: formed.append(1) or interval_map(a))
        exact = scipy.linalg.expm(omegas[1]) @ scipy.linalg.expm(omegas[0]) @ v
        assert np.linalg.norm(lindblad._exp_action(omegas, v) - exact) <= 1e-13 * np.linalg.norm(exact)
        assert formed == [1]

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_interval_map_is_a_divergence(self, entry):
        with pytest.raises(IntegrationDivergenceError) as err:
            lindblad._expm(np.full((2, 2), entry))
        assert not np.isfinite(err.value.achieved)

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
        # each pass evaluates the real form of L once per block of steps, the
        # blocks running across interval ends, and applies every step to the state
        rng = np.random.default_rng(13)
        me = random_harmonic_master_equation(rng, 3, 1.7, 2.9, 0.8)
        R = me._real_liouvillian
        built, evaluated = [], []
        interval_map, evaluate = lindblad._expm, lindblad._RealGenerator.__call__
        monkeypatch.setattr(lindblad, "_expm", lambda a: built.append(1) or interval_map(a))
        monkeypatch.setattr(
            lindblad._RealGenerator,
            "__call__",
            lambda op, t, weights=None, out=None: evaluated.append(op is R)
            or evaluate(op, t, weights, out),
        )
        # a budget of three steps
        monkeypatch.setattr(lindblad, "_BLOCK_BYTES", 3 * magnus_step_bytes(me))
        times = np.linspace(0.0, 1.0, 5)
        traj = evolve(me, random_density(rng, 3), times)
        assert traj.refinements >= 1 and traj.method == "magnus-4"
        assert built == []
        steps = [int(np.sum(traj.substeps)) >> k for k in range(traj.refinements, -1, -1)]
        assert steps[0] == times.size - 1  # one first step per interval
        assert evaluated == [True] * sum(-(-n // 3) for n in steps)

    def test_interval_blocks_match_one_block(self, monkeypatch):
        me = random_harmonic_master_equation(np.random.default_rng(15), 3, 1.7, 2.9, 0.8)
        rho0 = random_density(np.random.default_rng(16), 3)
        times = np.array([0.0, 0.6, 1.0])
        step = magnus_step_bytes(me)
        assert lindblad._block_rows(step, 80) == 80  # the budget holds all 80 steps
        split = lindblad._split(me.liouvillian, times)
        whole = lindblad._integrate(me, rho0, times, split, [40, 40])
        monkeypatch.setattr(lindblad, "_BLOCK_BYTES", 16 * step)  # blocks of 16 steps
        blocks = lindblad._integrate(me, rho0, times, split, [40, 40])
        for a, b in zip(whole, blocks):
            assert np.max(np.abs(a - b)) < 1e-13

    def test_block_engine_matches_per_interval_steps(self, monkeypatch):
        # blocks of 5 steps over mixed counts: intervals straddle blocks, and the
        # 12-step interval is longer than a block
        me, rho0, times, counts = block_engine_case(monkeypatch)
        R = me._real_liouvillian
        split = lindblad._split(me.liouvillian, times)
        states = lindblad._integrate(me, rho0, times, split, counts)
        xs = per_interval_steps(R, times, counts, (R.basis @ vec(rho0)).real)
        expected = (np.array(xs) @ R.basis.conj()).reshape(-1, 3, 3).transpose(0, 2, 1)
        assert np.array_equal(states[0], rho0) and np.array_equal(states[1:], expected)

    def test_block_engine_matches_per_interval_steps_on_span_maps(self, monkeypatch):
        # the same blocks with the carried identity as the operand of a span map
        me, _, times, counts = block_engine_case(monkeypatch)
        R = me._real_liouvillian
        maps = lindblad._magnus_pass(R, times, counts, np.eye(9))
        xs = per_interval_steps(R, times, counts, np.eye(9))
        assert np.array_equal(maps[0], np.eye(9)) and np.array_equal(maps[1:], xs)

    def test_pass_applies_each_block_in_one_call(self, monkeypatch):
        # blocks of 5 steps over intervals of 1 to 12 steps: 35 steps are 7
        # blocks, and each enters the Taylor kernel once, however many of the
        # 12 interval ends it holds
        me = random_harmonic_master_equation(np.random.default_rng(17), 3, 1.7, 2.9, 0.8)
        monkeypatch.setattr(lindblad, "_BLOCK_BYTES", 5 * magnus_step_bytes(me))
        points = np.linspace(0.0, 1.5, 13)
        counts = np.array([1, 2, 3, 1, 12, 1, 5, 2, 1, 4, 2, 1])
        calls = []
        apply = lindblad._exp_action
        monkeypatch.setattr(
            lindblad, "_exp_action", lambda omegas, *rest: calls.append(len(omegas)) or apply(omegas, *rest)
        )
        lindblad._magnus_pass(me._real_liouvillian, points, counts, np.ones(9))
        assert calls == [5] * 7

    def test_block_budget_holds_the_phase_arrays(self):
        # a d = 2 generator admits about a thousand steps per block, so R's phase
        # arrays and the rows of 1-norms count against _BLOCK_BYTES beside the
        # four matrices per step: one 4096-step pass peaks at 0.84 MB of numpy
        # and Python allocations against the 0.77 MB budget, and read 1.12 MB
        # when the budget counted the four matrices alone
        drive = Harmonic([3.0, -3.0, 0.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X, SIGMA_Z])
        me = MasterEquation(dim=2, hamiltonian=drive, terms=decay_qubit(0.5).terms)
        R = me._real_liouvillian
        points, counts = np.array([0.0, drive.period]), np.array([4096])
        for x in (np.array([1.0, 0.0, 0.0, 0.0]), np.eye(4)):
            lindblad._magnus_pass(R, points, counts, x)
            tracemalloc.start()
            try:
                lindblad._magnus_pass(R, points, counts, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.9e6

    def test_step_bound_covers_every_exponent(self, monkeypatch):
        # h ||R|| + (sqrt(3)/6) (h ||R||)^2 covers ||Omega||_1 on random harmonic
        # generators, from one step per interval (where the bound passes the
        # Taylor table and the measured norm is taken) to many
        rng = np.random.default_rng(21)
        points = np.array([0.0, 0.4, 1.1, 1.5])
        for dim in (2, 3):
            R = random_harmonic_master_equation(rng, dim, 1.7, 2.9, 0.8)._real_liouvillian
            for counts in ([1, 1, 1], [2, 3, 5], [16, 32, 16]):
                measured, applied = magnus_step_norms(monkeypatch, R, points, counts)
                assert np.all(applied >= measured)
            # the column sums of hypot(C, S) are at most those of |C| + |S|
            assert R.norm_bound <= np.max(np.sum(np.abs(R.matrices), axis=(0, 1)))

    def test_step_bound_sets_the_full_model_degrees(self, monkeypatch):
        # the benchmark's full-model generator at every phase pair it draws, at 2,
        # 4 and 8 steps per interval (its coarse and fine passes, and one more
        # doubling): the bound covers ||Omega||_1 and sets the Taylor degrees
        # that the measured norm would
        workloads = benchmark_workloads()
        for phases in workloads.phase_table():
            me, _, times = workloads.full_model_inputs(reslab, phases, "full")
            points = lindblad._split(me.liouvillian, times)[1]
            for k in (2, 4, 8):
                counts = np.full(points.size - 1, k)
                measured, applied = magnus_step_norms(monkeypatch, me._real_liouvillian, points, counts)
                assert np.all(applied >= measured)
                degrees = [np.searchsorted(lindblad._TAYLOR_THETA, x) for x in (applied, measured)]
                assert np.array_equal(*degrees)

    def test_divergence_error_carries_residual(self):
        # a static generator's interval map is exact, so the refinement loop
        # is driven by a harmonic one that does not commute with the decay
        cos_drive = Harmonic([3.0, -3.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X])  # cos(3t) sigma_x
        me = MasterEquation(dim=2, hamiltonian=cos_drive, terms=decay_qubit(1.0).terms)
        with pytest.raises(IntegrationDivergenceError) as err:
            evolve(me, np.diag([1.0, 0.0 + 0j]), [0.0, 1.0], tol=1e-30)
        assert np.isfinite(err.value.achieved) and err.value.achieved > 1e-30

    def test_non_finite_step_is_a_divergence(self):
        # decay at 1e200 over 1e200: the interval's exponent would overflow, and
        # its norm is checked before it is formed
        with pytest.raises(IntegrationDivergenceError) as err:
            evolve(decay_qubit(1e200), np.diag([1.0, 0.0 + 0j]), [0.0, 1e200])
        assert not np.isfinite(err.value.achieved)

    def test_uncountable_first_steps_are_a_divergence(self):
        # a drive at 1e200 rad/s over 1 s: no 64-bit count of whole periods in
        # evolve, and a static 1e200 sigma_x has no 64-bit count of first steps
        # in schroedinger_evolve
        fast = Harmonic([1e200, -1e200], [0.5 * SIGMA_X, 0.5 * SIGMA_X])
        me = MasterEquation(dim=2, hamiltonian=fast, terms=decay_qubit(1.0).terms)
        with pytest.raises(IntegrationDivergenceError, match="below 2\\*\\*63"):
            evolve(me, np.diag([1.0, 0.0 + 0j]), [0.0, 1.0])
        with pytest.raises(IntegrationDivergenceError, match="below 2\\*\\*63"):
            schroedinger_evolve(1e200 * SIGMA_X, [1.0, 0.0], [0.0, 1.0])

    def test_uncountable_first_count_of_an_aperiodic_grid(self):
        # incommensurate harmonics have no period, so a grid of 1e30 s is one
        # span, and its first count, 0.71 steps per unit time, has no 64-bit int
        slow = Harmonic([1.0, -1.0, np.sqrt(2.0), -np.sqrt(2.0)], [0.5 * SIGMA_X] * 4)
        me = MasterEquation(dim=2, hamiltonian=slow, terms=decay_qubit(1.0).terms)
        assert me.liouvillian.period is None
        with pytest.raises(IntegrationDivergenceError, match="below 2\\*\\*63"):
            evolve(me, np.diag([1.0, 0.0 + 0j]), [0.0, 1e30])

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
            for s, psi in zip(traj.states, schroedinger_evolve(h, psi0, times).states):
                assert abs(np.trace(s @ s) - 1.0) < 1e-10
                assert np.max(np.abs(s - qmath.projector(psi))) < 1e-8

    def test_both_integrators_report_the_same_period(self):
        # cos(3 t) sigma_x + sigma_z over 3.2 periods, as a ket and as a density matrix
        h = Harmonic([3.0, -3.0, 0.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X, SIGMA_Z])
        times = np.linspace(0.0, 3.2 * h.period, 9)
        psi0 = qmath.normalized([1.0, 0.5 - 0.5j])
        ket = schroedinger_evolve(h, psi0, times)
        rho = evolve(MasterEquation(dim=2, hamiltonian=h), qmath.projector(psi0), times)
        assert (ket.period, ket.whole_periods) == (rho.period, rho.whole_periods)
        assert ket.period == pytest.approx(h.period, rel=1e-15) and ket.whole_periods == 3
        assert np.array_equal(ket.times, rho.times)

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
        psi = schroedinger_evolve(h, qmath.normalized([1.0, 0.5 - 0.5j]), [0.0, T]).final
        assert np.max(np.abs(whole - qmath.projector(psi))) < 1e-8


def benchmark_workloads():
    """The benchmark's workload module, which builds the full-model inputs."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARKS))
    return workloads


def dressed_full_model():
    """The benchmark's full-model master equation (dressed frame, spontaneous
    emission) at the first recorded phase pair, and its start state."""
    workloads = benchmark_workloads()
    me, rho0, _ = workloads.full_model_inputs(reslab, workloads.phase_table()[0], "full")
    return me, rho0


class TestWholePeriods:
    @pytest.mark.parametrize("periods", [3.2, 32.0])
    def test_whole_periods_match_a_chained_reference(self, periods):
        # the reference restarts evolve at t = 0 once per period from the last
        # period's end, which periodicity makes valid, and integrates each
        # period through its own sample times
        me, rho0 = dressed_full_model()
        period = me.liouvillian.period
        times = np.linspace(0.0, periods * period, 11)
        traj = evolve(me, rho0, times)
        # a span's end belongs to it: 32 periods are 31 whole ones and the last span
        assert traj.period == period and traj.whole_periods == math.ceil(periods) - 1
        whole, rest = np.divmod(times, period)
        rho, reference = rho0, []
        for n in range(int(whole[-1]) + 1):
            inside = rest[whole == n]
            grid = np.unique(np.concatenate([[0.0], inside, [period]]))
            chained = evolve(me, rho, grid)
            assert chained.period is None and chained.whole_periods == 0
            reference += [chained.states[np.searchsorted(grid, r)] for r in inside]
            rho = chained.final
        # measured: 2.2e-10 (3.2 periods) and 1.6e-12 (32)
        assert np.max(np.linalg.norm(traj.states - np.array(reference), axis=(1, 2))) <= 1e-9

    def test_grid_within_a_period_carries_the_state(self, monkeypatch):
        # the benchmark's grid spans an eighth of a period: the state, a vector,
        # is carried through the output times and no power is taken
        workloads = benchmark_workloads()
        me, rho0, times = workloads.full_model_inputs(reslab, workloads.phase_table()[0], "full")
        carried = []
        magnus_pass = lindblad._magnus_pass

        def carrying(R, points, substeps, x):
            carried.append(x.shape)
            return magnus_pass(R, points, substeps, x)

        monkeypatch.setattr(lindblad, "_magnus_pass", carrying)
        monkeypatch.setattr(lindblad, "_whole_spans", None)
        traj = evolve(me, rho0, times)
        assert traj.period is None and traj.whole_periods == 0
        assert carried == [(36,)] * (traj.refinements + 1)
        assert int(np.sum(traj.substeps)) == 40 and traj.refinements == 1

    def test_full_model_evolve_allocates_no_block_temporaries(self):
        # each pass forms its blocks of 18 steps in one 0.75 MB buffer (four
        # 36 x 36 real matrices per step) and every block reuses it: one
        # full-model evolve peaks at 0.85 MB of numpy and Python allocations,
        # and blocks that allocate their 1-norm temporaries read 0.98 MB
        workloads = benchmark_workloads()
        inputs = workloads.full_model_inputs(reslab, workloads.phase_table()[0], "full")
        evolve(*inputs)  # the real Liouvillian and its period are built once and kept
        tracemalloc.start()
        try:
            evolve(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.95e6

    def test_many_periods_keep_memory_bounded(self):
        # a driven, decaying qubit over 1.2e5 periods of 2 pi / 3, 5 samples: one
        # span is integrated and the whole ones are powers of its map, so time
        # and memory do not grow with the number of periods (measured: 0.36 MB
        # and about 0.01 s)
        drive = Harmonic([3.0, -3.0, 0.0], [0.1 * SIGMA_X, 0.1 * SIGMA_X, SIGMA_Z])
        me = MasterEquation(dim=2, hamiltonian=drive, terms=decay_qubit(1.0).terms)
        times = np.linspace(0.0, 1.2e5 * drive.period, 5)
        rho0 = np.diag([1.0, 0.0 + 0j])
        evolve(me, rho0, times[:2] / 1e5)
        tracemalloc.start()
        try:
            traj = evolve(me, rho0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.whole_periods >= 119_999 and traj.period == pytest.approx(drive.period, rel=1e-15)
        assert peak <= 0.5e6
        for s in traj.states:
            assert abs(np.trace(s) - 1.0) <= 1e-9 and qmath.hermitian_defect(s) <= 1e-10

    def test_trace_holds_over_ten_million_periods(self):
        # the span map's trace row is exact to about 1e-15, and M(S)^n multiplies
        # that defect by n: 1.2e7 periods failed the 1e-9 trace-drift check at
        # tol 1e-8 and 1e-6 until the powers kept the trace row exact (measured
        # now: drift 0, states within 3.0e-9 of the periodic state)
        drive = Harmonic([3.0, -3.0, 0.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X, SIGMA_Z])
        me = MasterEquation(dim=2, hamiltonian=drive, terms=decay_qubit(0.5).terms)
        rho0 = np.diag([1.0, 0.0 + 0j])
        for tol in (1e-8, 1e-6):
            traj = evolve(me, rho0, np.linspace(0.0, 1.2e7 * drive.period, 5), tol=tol)
            assert traj.whole_periods == 12_000_000
            # every sample is a whole number of periods, long past the relaxation
            periodic = evolve(me, rho0, np.linspace(0.0, 60.0 * drive.period, 61), tol=tol).final
            assert np.max(np.linalg.norm(traj.states[1:] - periodic, axis=(1, 2))) <= 1e-8
            for s in traj.states:
                assert abs(np.trace(s) - 1.0) <= 1e-9 and qmath.hermitian_defect(s) <= 1e-10

    def test_trace_breaking_span_map_still_fails_the_drift_check(self):
        # a trace loss of 2e-11 per period is above rounding (1e-12): the span map
        # is left as it is, and its powers drift by 2e-9 over 100 periods
        drive = Harmonic([3.0, -3.0, 0.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X, SIGMA_Z])
        me = MasterEquation(2, drive, decay_qubit(0.5).terms, extra_generator=-1e-11 * np.eye(4))
        with pytest.raises(IntegrationDivergenceError, match="trace drifted"):
            evolve(me, np.diag([1.0, 0.0 + 0j]), np.linspace(0.0, 100.0 * drive.period, 5))

    def test_drift_is_not_reported_as_a_failed_convergence(self):
        # a trace loss of 1e-9 per unit time: the estimates fall from 4.3e-3 to
        # 5.5e-9 (256 substeps), the first to meet tol, and no doubling cures
        # the drift, so the error names it
        drive = Harmonic([3.0, -3.0, 0.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X, SIGMA_Z])
        me = MasterEquation(2, drive, decay_qubit(0.5).terms, extra_generator=-1e-9 * np.eye(4))
        times = np.linspace(0.0, 100.0 * drive.period, 5)
        with pytest.raises(IntegrationDivergenceError, match="trace drifted") as raised:
            evolve(me, np.diag([1.0, 0.0 + 0j]), times)
        drift = 1.0 - np.exp(-1e-9 * times[-1])
        assert raised.value.achieved == pytest.approx(drift, rel=1e-3)
        assert raised.value.target == 1e-9

    def test_generator_drift_stops_the_doublings(self, monkeypatch):
        # the drift of 2.094e-7 repeats on every pass, so the doublings stop at
        # the first pass whose estimate meets tol: the seventh, at 256 substeps
        drive = Harmonic([3.0, -3.0, 0.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X, SIGMA_Z])
        me = MasterEquation(2, drive, decay_qubit(0.5).terms, extra_generator=-1e-9 * np.eye(4))
        passes = []
        integrate = lindblad._integrate
        monkeypatch.setattr(
            lindblad, "_integrate", lambda *args: passes.append(max(args[-1])) or integrate(*args)
        )
        with pytest.raises(IntegrationDivergenceError, match="trace drifted"):
            evolve(me, np.diag([1.0, 0.0 + 0j]), np.linspace(0.0, 100.0 * drive.period, 5))
        assert len(passes) <= 7 and passes[-1] <= 256

    @pytest.mark.parametrize("periods", [6e7, 1.2e8])
    def test_doublings_cure_the_drift_of_many_periods(self, periods):
        # the final state converges at 256 steps per span, and the powers, taken
        # where the trace is a coordinate, keep it to 4.4e-16 on every pass; with
        # the trace row projected instead, their drift jumped between 1e-10 and
        # 1e-8 from pass to pass, and 1.2e8 periods ran out of doublings
        drive = Harmonic([3.0, -3.0, 0.0], [0.5 * SIGMA_X, 0.5 * SIGMA_X, SIGMA_Z])
        me = MasterEquation(dim=2, hamiltonian=drive, terms=decay_qubit(0.5).terms)
        traj = evolve(me, np.diag([1.0, 0.0 + 0j]), np.linspace(0.0, periods * drive.period, 5))
        assert traj.whole_periods == int(periods) and traj.achieved <= 1e-8
        assert np.max(np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0)) <= 1e-9

    def test_whole_spans_power_only_between_distinct_counts(self):
        rng = np.random.default_rng(19)
        span_map, _ = np.linalg.qr(random_matrix(rng, 3))  # unitary: its powers stay bounded
        x0 = qmath.normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        whole = np.array([0, 0, 1, 2, 3, 3, 7, 10**6])
        out = lindblad._whole_spans(span_map, whole, x0)
        # a gap of one is the product a per-span advance makes, bit for bit
        advanced = [x0]
        for _ in range(3):
            advanced.append(span_map @ advanced[-1])
        assert np.array_equal(out[:6], np.array(advanced)[whole[:6]])
        # a longer gap is one power, taken from the last distinct count
        assert np.array_equal(out[6], np.linalg.matrix_power(span_map, 4) @ advanced[3])
        w, v = np.linalg.eig(span_map)
        exact = v @ (w ** (10**6) * np.linalg.solve(v, x0))
        assert np.max(np.abs(out[7] - exact)) <= 1e-9


class TestFullModelReference:
    def test_final_states_match_recorded_reference(self):
        # the benchmark's full-model inputs and its final states recorded at
        # the seed commit; read, never written
        workloads = benchmark_workloads()
        reference = json.loads(workloads.REFERENCE.read_text())
        recorded = reference["full-model"]["tiny"]
        assert len(recorded) >= 4
        for phases, (real, imag) in zip(reference["phases"], recorded):
            traj = evolve(*workloads.full_model_inputs(reslab, phases, "tiny"))
            assert np.linalg.norm(traj.final - (np.array(real) + 1j * np.array(imag))) <= 1e-7

    @pytest.mark.parametrize("size, substeps", [("full", 4), ("tiny", 2)])
    def test_benchmark_inputs_take_the_counts_of_the_norm(self, size, substeps):
        # on every recorded phase pair the first count is set by ||R|| = 81, not
        # by the harmonics at 760-1640 rad/s of the weak rotated decay jump: 2
        # and 1 steps per interval, accepted after one doubling (measured: 3.4e-12
        # and 2.4e-12 from the reference; 9.3e-11 and 5.9e-11 at twice the steps
        # with the Gauss sum in place of the integral of R)
        workloads = benchmark_workloads()
        reference = json.loads(workloads.REFERENCE.read_text())
        assert len(reference["phases"]) == len(reference["full-model"][size]) == 16
        for phases, (real, imag) in zip(reference["phases"], reference["full-model"][size]):
            traj = evolve(*workloads.full_model_inputs(reslab, phases, size))
            assert traj.refinements == 1 and np.all(traj.substeps == substeps)
            assert np.linalg.norm(traj.final - (np.array(real) + 1j * np.array(imag))) <= 1e-10


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

    def test_dressed_full_model_without_decay(self):
        # the benchmark's full model without spontaneous emission: a static
        # 36 x 36 generator; the reference is the bordered least-squares solve
        # L vec(rho) = 0, tr rho = 1 on the complex Liouvillian
        workloads = benchmark_workloads()
        phi1, phi2 = workloads.phase_table()[0]
        p = model.ModelParams(phi1=phi1, phi2=phi2, **workloads.FULL_MODEL_PARAMS)
        me = model.full_system_master_equation(p, frame="dressed-effective")
        rho, info = steady_state(me)
        assert me.dim**2 == 36 and info.null_dimension == 1 and info.residual <= 1e-9
        assert np.array_equal(rho, rho.conj().T)
        bordered = np.vstack([liouvillian_matrix(me), vec(np.eye(me.dim))[None, :]])
        x, *_ = np.linalg.lstsq(bordered, np.eye(me.dim**2 + 1)[-1], rcond=None)
        assert np.max(np.abs(rho - unvec(x, me.dim))) <= 1e-12
        # the slowest mode relaxes at 0.025, so 100/rate = 2000 is e^-50 away
        rho0 = qmath.projector(np.kron(qmath.basis_ket(2, 1), qmath.basis_ket(p.n_max + 1, 0)))
        final = evolve(me, rho0, [0.0, 100.0 / model.engineered_rate(p)]).final
        assert np.max(np.abs(final - rho)) <= 1e-12

    def test_generator_without_a_null_vector_raises(self):
        # -0.1 I damps every state, the trace included: no singular value is null
        me = MasterEquation(dim=2, extra_generator=-0.1 * np.eye(4))
        with pytest.raises(SteadyStateError, match="no null singular value found"):
            steady_state(me)

    def test_rejects_non_hermiticity_preserving_generator(self):
        # the static generator that evolve admits on its exact expm path
        a = 0.3 * SIGMA_GE
        extra = -1j * (np.kron(np.eye(2), a) - np.kron(a.T, np.eye(2)))
        me = MasterEquation(2, SIGMA_Z, decay_qubit(1.0).terms, extra_generator=extra)
        with pytest.raises(NotHermitianError):
            steady_state(me)


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

    def test_mean_is_the_zero_frequency_component(self):
        op = Harmonic([2.0, 0.0, -2.0], [SIGMA_GE, SIGMA_Z, SIGMA_X])
        assert np.array_equal(op.mean, SIGMA_Z)
        # over one period the midpoint rule averages the other components away
        times = (np.arange(8) + 0.5) * op.period / 8
        assert np.max(np.abs(np.mean(op(times), axis=0) - op.mean)) <= 1e-15
        oscillating = Harmonic([2.0, -2.0], [SIGMA_GE, SIGMA_X])
        assert np.array_equal(oscillating.mean, np.zeros((2, 2)))

    def test_merges_equal_frequencies(self):
        op = Harmonic([1.0, -1.0, 1.0 + 1e-13, 0.0], [SIGMA_GE, SIGMA_GE, 2.0 * SIGMA_GE, SIGMA_GE])
        assert np.array_equal(op.frequencies, [-1.0, 0.0, 1.0 + 5e-14])
        assert np.max(np.abs(op.matrices[2] - 3.0 * SIGMA_GE)) == 0.0

    @pytest.mark.parametrize("nus", [[-0.0], [-0.0, 2.0]], ids=["one", "two"])
    def test_negative_zero_is_stored_as_zero(self, nus):
        op = Harmonic(nus, [SIGMA_GE] * len(nus))
        assert np.signbit(op.frequencies).tolist() == [False] * len(nus)
        assert op.frequencies[0] == 0.0

    @pytest.mark.parametrize("nus", [[0.0], [-1.0, 0.0, 2.5]], ids=["one", "ascending"])
    def test_canonical_input_is_stored_without_a_copy(self, nus):
        mats = np.stack([SIGMA_GE] * len(nus))
        op = Harmonic(nus, mats)
        assert op.matrices is mats

    def test_frequencies_within_the_tolerance_merge(self):
        # at the largest |nu| of 4, frequencies 3.9e-9 apart are one harmonic
        # (their mean), and 4.1e-9 apart two
        tol = lindblad.FREQUENCY_RTOL * 4.0
        near, far = 1.0 + 0.975 * tol, 1.0 + 1.025 * tol
        merged = Harmonic([near, 1.0, 4.0], [SIGMA_GE, SIGMA_X, SIGMA_Z])
        assert merged.frequencies.tolist() == [(near + 1.0) / 2.0, 4.0]
        assert np.array_equal(merged.matrices[0], SIGMA_X + SIGMA_GE)
        kept = Harmonic([far, 1.0, 4.0], [SIGMA_GE, SIGMA_X, SIGMA_Z])
        assert kept.frequencies.tolist() == [1.0, far, 4.0]

    def test_frequencies_that_cancel_up_to_rounding_are_zero(self):
        # within FREQUENCY_RTOL of 0 relative to the largest: merged at exactly 0
        op = Harmonic([-2e-10, 5.0, 1e-10], [SIGMA_GE, SIGMA_X, SIGMA_Z])
        assert np.array_equal(op.frequencies, [0.0, 5.0])
        assert np.array_equal(op.mean, SIGMA_GE + SIGMA_Z)

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
