import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import reslab
from reslab import frames, lindblad, model, qmath
from reslab.errors import IntegrationDivergenceError
from reslab.frames import compare_effective, rotation, schroedinger_evolve, to_frame
from reslab.scenarios import Scenario, resolve_params
from reslab.lindblad import Harmonic, LindbladTerm, unvec, vec

SIGMA_GE = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def dissipator(o, scale):
    """Superoperator of ``scale (2 O . O^dag - O^dag O . - . O^dag O)``, column stacking."""
    eye, odo = np.eye(o.shape[0]), o.conj().T @ o
    return scale * (2.0 * np.kron(o.conj(), o) - np.kron(eye, odo) - np.kron(odo.T, eye))


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


class TestFrameTransform:
    def test_static_generator_frame(self):
        rng = np.random.default_rng(0)
        g = random_hermitian(rng, 3)
        frame = rotation((g,))
        assert np.max(np.abs(frame(0.0) - np.eye(3))) < 1e-12
        for t in (0.3, 1.7):
            u = frame(t)
            assert np.max(np.abs(qmath.dag(u) @ u - np.eye(3))) < 1e-10
            assert np.max(np.abs(u - scipy.linalg.expm(-1j * g * t))) < 1e-12

    def test_compose_generator(self):
        rng = np.random.default_rng(1)
        g1, g2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
        r = rotation((g1, g2))
        t = 0.41
        u1 = scipy.linalg.expm(-1j * g1 * t)
        assert np.max(np.abs(r(t) - u1 @ scipy.linalg.expm(-1j * g2 * t))) < 1e-12
        # i dR/dt R^dag by finite differences against G_1 + U_1 G_2 U_1^dag
        dt = 1e-7
        rdot = (r(t + dt) - r(t - dt)) / (2 * dt)
        h_num = 1j * rdot @ qmath.dag(r(t))
        assert np.max(np.abs(h_num - (g1 + u1 @ g2 @ qmath.dag(u1)))) < 1e-5


class TestConjugateOperator:
    def test_identity_frame(self):
        o = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        r = np.eye(2)
        assert np.array_equal(r @ o @ qmath.dag(r), o)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            o = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            frame = rotation((random_hermitian(rng, 3),))
            u = frame(0.7)
            conjugated = u @ o @ qmath.dag(u)
            before = np.sort_complex(np.linalg.eigvals(o))
            after = np.sort_complex(np.linalg.eigvals(conjugated))
            assert np.max(np.abs(before - after)) < 1e-9
            assert abs(np.linalg.norm(o) - np.linalg.norm(conjugated)) < 1e-9
            # to_frame is the inverse conjugation R^dag O R, read off the rotation
            assert np.max(np.abs(to_frame(frame, o)(0.7) - qmath.dag(u) @ o @ u)) < 1e-12


class TestToFrame:
    def test_hamiltonian_term_follows_the_evolution(self):
        # F^dag psi evolves under F^dag H F - i F^dag dF/dt; with the frame's own
        # term of the other sign the frame would turn the wrong way
        rng = np.random.default_rng(11)
        frame = rotation((random_hermitian(rng, 3), random_hermitian(rng, 3)))
        upper = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = Harmonic([0.0, 2.3, -2.3], [random_hermitian(rng, 3), upper, upper.conj().T])
        psi0 = qmath.normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        times = np.linspace(0.0, 1.0, 9)
        bare = schroedinger_evolve(h, psi0, times).states
        seen = schroedinger_evolve(
            to_frame(frame, h, hamiltonian=True), qmath.dag(frame(0.0)) @ psi0, times
        ).states
        expected = np.einsum("nji,nj->ni", frame(times).conj(), bare)
        assert np.max(np.abs(seen - expected)) < 1e-8


class TestDissipatorAverage:
    def test_static_passthrough(self):
        term = LindbladTerm(rate=1.4, operator=SIGMA_GE)
        frag = term.superoperator().mean
        assert np.max(np.abs(frag - dissipator(SIGMA_GE, 0.7))) < 1e-12

    def test_global_phase_invariance(self):
        omega = 2.0 * np.pi * 3.0
        term = LindbladTerm(rate=1.8, operator=Harmonic([-omega], [SIGMA_GE]))
        frag = term.superoperator().mean
        assert np.max(np.abs(frag - dissipator(SIGMA_GE, 0.9))) < 1e-12

    def test_fragment_is_valid_generator(self):
        gamma = 1.3
        p = dressed_decay_params(gamma)
        term = dressed_decay_term(p)
        frag = term.superoperator().mean
        tau = np.zeros(4, dtype=complex)
        tau[[0, 3]] = 1.0
        assert np.max(np.abs(tau @ frag)) < 1e-10
        rng = np.random.default_rng(4)
        for _ in range(4):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a + a.conj().T
            out = unvec(frag @ vec(rho), 2)
            assert qmath.hermitian_defect(out) < 1e-10

    def test_dressed_decay_coefficients(self):
        # the adjudicating oracle: averaging the spontaneous-emission
        # superoperator in the doubly rotating dressed frame gives
        #   d rho_uu/dt = (3g/8) - (3g/4) rho_uu
        #   d rho_ud/dt = -(5g/8) rho_ud      (no rho_du cross term)
        gamma = 2.0
        p = dressed_decay_params(gamma)
        frag = dressed_decay_term(p).superoperator().mean
        pump = frag[0, 3].real
        damp = (frag[0, 3] - frag[0, 0]).real
        coh_decay = -frag[2, 2].real
        cross = frag[2, 1]
        assert pump == pytest.approx(3.0 * gamma / 8.0, abs=1e-9)
        assert damp == pytest.approx(3.0 * gamma / 4.0, abs=1e-9)
        assert coh_decay == pytest.approx(5.0 * gamma / 8.0, abs=1e-9)
        assert abs(cross) < 1e-9

    @pytest.mark.parametrize("branch", ["nonadiabatic", "memory"])
    def test_secular_sum_matches_midpoint_average(self, branch):
        # brute force: the midpoint rule over a common period is exact for
        # trigonometric polynomials with fewer harmonics than grid points
        if branch == "nonadiabatic":
            p = dressed_decay_params(1.3)
            period = 2.0 * np.pi / p.omega2
        else:
            lam, chi = 16.0, 1.0
            p = model.ModelParams(
                g=1.0, omega1=float(np.sqrt(lam**2 - (chi * lam) ** 2 / 4.0)), omega2=0.0,
                phi1=0.3, delta1=chi * lam, delta2=0.0, delta_a=-2.0 * lam, Gamma=1e6,
                gamma=0.8, n_max=1,
            )
            period = np.pi / lam
        term = LindbladTerm(rate=p.gamma, operator=model.dressed_decay_jump(p, branch))
        n = 512
        ts = (np.arange(n) + 0.5) * (period / n)
        brute = sum(dissipator(term.operator_at(t), 0.5 * term.rate) for t in ts) / n
        assert np.max(np.abs(term.superoperator().mean - brute)) < 1e-12


def dressed_decay_params(gamma):
    return model.ModelParams(
        g=1.0,
        omega1=8.0,
        omega2=1.0,
        phi1=0.4,
        phi2=1.1,
        delta1=0.0,
        delta2=-16.0,
        delta_a=-1.0,
        Gamma=1e6,
        gamma=gamma,
        n_max=1,
    )


def dressed_decay_term(p):
    return LindbladTerm(rate=p.gamma, operator=model.dressed_decay_jump(p, "nonadiabatic"))


class TestCompareEffective:
    def test_identical_generators(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 3)
        psi0 = qmath.normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        _, fidelities = compare_effective(h, h, psi0, np.linspace(0.0, 2.0, 21), frame=np.eye(3))
        assert np.min(fidelities) == pytest.approx(1.0, abs=1e-9)

    def test_resonant_regime_floor(self):
        p = regime_params()
        _, fidelities = run_h1_h2_comparison(p)
        # regression floor frozen from the first converged run (0.99835)
        assert np.min(fidelities) >= 0.998

    def test_violated_detuning_degrades(self):
        p = regime_params()
        good = np.min(run_h1_h2_comparison(p)[1])
        bad_p = p.replace(delta2=-0.9 * 2.0 * p.omega1)
        bad = np.min(run_h1_h2_comparison(bad_p, enforce=False)[1])
        assert bad < good
        assert bad < 0.9

    def test_rejects_grids_not_starting_at_zero_or_not_increasing(self):
        # the effective side is exp(-i H_eff t) from t = 0, so another start
        # would be compared against the wrong states
        from reslab.interferometer import run_interferometer

        h = np.diag([1.0, -1.0 + 0j])
        p = model.ModelParams(g=0.1, omega1=1.0, omega2=0.05, Gamma=2.0)
        for times in ([0.5, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
            with pytest.raises(ValueError):
                compare_effective(h, h, [1.0, 0.0], times, frame=np.eye(2))
            with pytest.raises(ValueError):
                schroedinger_evolve(h, [1.0, 0.0], times)
            with pytest.raises(ValueError):
                run_interferometer(p, times)


def regime_params():
    return model.ModelParams(
        g=1.0,
        omega1=400.0,
        omega2=20.0,
        phi1=0.0,
        phi2=0.0,
        delta1=0.0,
        delta2=-800.0,
        delta_a=-20.0,
        Gamma=20.0,
        gamma=0.0,
        n_max=2,
    )


def run_h1_h2_comparison(p, enforce=True):
    pinned = p.replace(**dict(model.branch_of(p, "nonadiabatic").pins.values()))
    h2 = model.effective_model(p if enforce else pinned, "nonadiabatic")[2]
    # the dressed frame lifted to the Fock factor, as effective_model lifts it;
    # that builder refuses the violated detuning
    eye_f = np.eye(p.n_max + 1)
    frame = model.branch_of(p, "nonadiabatic").dressed_frame.map(lambda m: np.kron(m, eye_f))
    psi0 = np.kron(model.up_ket(p.phi1, p.phi), qmath.basis_ket(p.n_max + 1, 0))
    times = np.linspace(0.0, 2.0, 101)
    return compare_effective(model.build_h1(p), h2, psi0, times, frame=frame)


def memory_params(chi, lam=200.0):
    return model.ModelParams(
        g=1.0,
        omega1=float(np.sqrt(lam**2 - (chi * lam) ** 2 / 4.0)),
        omega2=0.0,
        phi1=0.0,
        phi2=0.0,
        delta1=chi * lam,
        delta2=0.0,
        delta_a=-2.0 * lam,
        Gamma=20.0,
        gamma=0.0,
        n_max=2,
    )


def nonadiabatic_case(p, times):
    psi0 = np.kron(model.up_ket(p.phi1, p.phi), qmath.basis_ket(p.n_max + 1, 0))
    return model.build_h1(p), psi0, times


def memory_case(p, times):
    chi = model.DerivedMemoryParams.from_params(p).chi
    psi0 = np.kron(model.tilde_minus_ket(chi, p.phi1), qmath.basis_ket(p.n_max + 1, 0))
    return model.build_h1_memory(p), psi0, times


def effective_check_case(branch):
    p = resolve_params(Scenario(name="effective-check", options={"branch": branch}))
    case = memory_case if branch == "memory" else nonadiabatic_case
    return case(p, np.linspace(0.0, 2.0 / p.g, 201))


def non_periodic_case():
    # frequencies 1 and sqrt(2): H(t) never repeats
    rng = np.random.default_rng(21)
    a, b = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2))
    nus = [-np.sqrt(2.0), -1.0, 0.0, 1.0, np.sqrt(2.0)]
    h = Harmonic(nus, [qmath.dag(b), qmath.dag(a), random_hermitian(rng, 4), a, b])
    psi0 = qmath.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
    return h, psi0, np.linspace(0.0, 12.0, 61)


CRITERION_5_PERIOD = 2.0 * np.pi / 20.0

#: each case's H, psi0 and grid, and the largest state error of the direct
#: DOP853 integration of psi (rtol 1e-10, atol 1e-12) against the reference,
#: rounded up: the one-period map must do no worse on any of them.  The
#: effective-check memory case is criterion 5's memory set at chi = 0 in
#: units of g (see test_effective_check_memory_is_criterion_5_at_chi_0).
EVOLVE_CASES = {
    "effective-check nonadiabatic": (lambda: effective_check_case("nonadiabatic"), 4.3e-10),
    "effective-check memory": (lambda: effective_check_case("memory"), 1.3e-10),
    "criterion 5 nonadiabatic": (
        lambda: nonadiabatic_case(regime_params(), np.linspace(0.0, 2.0, 101)),
        9.9e-10,
    ),
    "criterion 5 memory chi=0": (
        lambda: memory_case(memory_params(0.0), np.linspace(0.0, 2.0, 101)),
        1.3e-10,
    ),
    "criterion 5 memory chi=+1": (
        lambda: memory_case(memory_params(1.0), np.linspace(0.0, 2.0, 101)),
        3.1e-10,
    ),
    "criterion 5 memory chi=-1": (
        lambda: memory_case(memory_params(-1.0), np.linspace(0.0, 2.0, 101)),
        1.2e-10,
    ),
    "horizon shorter than a period": (
        lambda: nonadiabatic_case(regime_params(), np.linspace(0.0, 0.7 * CRITERION_5_PERIOD, 41)),
        1.9e-10,
    ),
    "grid points on k T": (
        lambda: nonadiabatic_case(regime_params(), np.linspace(0.0, 4.0 * CRITERION_5_PERIOD, 41)),
        6.3e-10,
    ),
    "non-periodic": (non_periodic_case, 3.2e-10),
}


def reference_states(h, psi0, times):
    """Direct DOP853 integration of the state at tight tolerances."""
    generators = -1j * h.matrices

    def rhs(t, y):
        return np.exp(-1j * t * h.frequencies) @ (generators @ y)

    sol = scipy.integrate.solve_ivp(
        rhs, (times[0], times[-1]), psi0, t_eval=times, method="DOP853", rtol=1e-13, atol=1e-15
    )
    assert sol.success
    return sol.y.T


class TestSchroedingerEvolve:
    @pytest.mark.parametrize("case", EVOLVE_CASES)
    def test_matches_reference(self, case):
        build, bound = EVOLVE_CASES[case]
        h, psi0, times = build()
        states = schroedinger_evolve(h, psi0, times).states
        assert np.max(np.abs(states - reference_states(h, psi0, times))) <= bound

    def test_effective_check_memory_is_criterion_5_at_chi_0(self):
        # one problem in units of g = c: H_a(t) = c H_b(c t) and psi0 agree
        # exactly, and c t_a holds t_b, so the case checks both
        h_a, psi_a, t_a = effective_check_case("memory")
        h_b, psi_b, t_b = memory_case(memory_params(0.0), np.linspace(0.0, 2.0, 101))
        c = resolve_params(Scenario(name="effective-check", options={"branch": "memory"})).g
        assert np.array_equal(h_a.frequencies, c * h_b.frequencies)
        assert np.array_equal(h_a.matrices, c * h_b.matrices)
        assert np.array_equal(psi_a, psi_b)
        assert np.max(np.abs(c * t_a[::2] - t_b)) <= 1e-15

    @pytest.mark.parametrize(
        "case, span",
        [
            ("criterion 5 nonadiabatic", CRITERION_5_PERIOD),
            ("horizon shorter than a period", 0.7 * CRITERION_5_PERIOD),
            ("grid points on k T", CRITERION_5_PERIOD),
            ("non-periodic", 12.0),
        ],
    )
    def test_integrates_one_span(self, monkeypatch, case, span):
        # the propagator is integrated over one period, or over the whole grid
        # when there is no shorter period; whole periods are matrix powers
        spans = []
        propagators = frames._propagators

        def recording(h, points, substeps, u):
            spans.append((points[0], points[-1]))
            return propagators(h, points, substeps, u)

        monkeypatch.setattr(frames, "_propagators", recording)
        schroedinger_evolve(*EVOLVE_CASES[case][0]())
        assert len(spans) >= 2  # a coarse and a fine pass
        assert spans == [(0.0, pytest.approx(span, rel=1e-15))] * len(spans)

    def test_rejects_an_empty_span(self):
        with pytest.raises(ValueError, match="spans no time"):
            schroedinger_evolve(np.eye(2), [1.0, 0.0], [0.0])

    def test_comparison_reports_the_period_map(self):
        h, psi0, times = effective_check_case("nonadiabatic")
        traj, _ = compare_effective(
            h, np.zeros((6, 6)), psi0, np.linspace(0.0, times[-1], 11), frame=np.eye(6)
        )
        assert 0.0 < traj.achieved <= 1e-10
        assert (traj.method, traj.tol, traj.refinements) == ("gauss-legendre-4", 1e-10, 1)
        assert int(np.sum(traj.substeps)) == 600  # the accepted pass's steps per span
        assert (traj.period, traj.whole_periods) == (2.0 * np.pi / 1e6, 3)
        assert np.array_equal(traj.times, np.linspace(0.0, times[-1], 11))
        short, _ = compare_effective(
            h, np.zeros((6, 6)), psi0, np.linspace(0.0, 1e-6, 11), frame=np.eye(6)
        )
        assert short.period is None
        assert short.whole_periods == 0


def _harmonic_case():
    """cos(3 t) sigma_x + sigma_z, period 2 pi / 3, and a state."""
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = Harmonic([3.0, -3.0, 0.0], [0.5 * sigma_x, 0.5 * sigma_x, np.diag([1.0, -1.0])])
    return h, qmath.normalized([1.0, 0.5 - 0.5j])


def twelve_step_blocks(d):
    """A ``_BLOCK_BYTES`` that holds 12 steps of dimension ``d``, at 16 d^2 (s + s^2 + 1)
    bytes each with s = 4 stages."""
    return 12 * 16 * d**2 * (4 + 4**2 + 1)


def step_formula_propagators(h, points, substeps):
    """The propagators at ``points``, each step written out: the full 4d x 4d
    system I - w [a_ij M_i] assembled and solved for the stage slopes, then
    I + w sum_i b_i K_i, applied one step at a time."""
    d = h.matrices.shape[-1]
    ga, gb, gc = frames._GL_A, frames._GL_B, frames._GL_C
    u, expected = np.eye(d), [np.eye(d)]
    for start, stop, k in zip(points[:-1], points[1:], substeps):
        w = (stop - start) / k
        for step in range(k):
            m = -1j * h(start + step * w + gc * w)
            blocks = [[aij * mi for aij in row] for row, mi in zip(ga, m)]
            system = np.eye(4 * d) - w * np.block(blocks)
            slopes = np.linalg.solve(system, m.reshape(4 * d, d)).reshape(4, d, d)
            u = (np.eye(d) + w * np.tensordot(gb, slopes, axes=1)) @ u
        expected.append(u)
    return np.array(expected)


def assert_step_formula(h, substeps, rng):
    """``_propagators`` on the identity and on a ket within 1e-13 of the written-out steps."""
    d = h.matrices.shape[-1]
    points = np.linspace(0.0, 0.3 * len(substeps), len(substeps) + 1)
    expected = step_formula_propagators(h, points, substeps)
    props = frames._propagators(h, points, np.array(substeps), np.eye(d, dtype=complex))
    assert np.max(np.abs(props - expected)) <= 1e-13
    psi = qmath.normalized(rng.normal(size=d) + 1j * rng.normal(size=d))
    kets = frames._propagators(h, points, np.array(substeps), psi)
    assert np.max(np.abs(kets - expected @ psi)) <= 1e-13


def linked_hamiltonian(links, seed):
    """A Hermitian harmonic sum at 0, +-1 and +-2.5 whose components are nonzero
    exactly on the symmetric boolean pattern ``links``."""
    rng = np.random.default_rng(seed)
    d = len(links)
    a, b = (links * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(2))
    static = np.triu(links * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
    static = static + qmath.dag(static)
    return Harmonic([-2.5, -1.0, 0.0, 1.0, 2.5], [qmath.dag(b), qmath.dag(a), static, a, b])


def unequal_split():
    """Links only between the classes {0, 3} and {1, 2, 4}: 3 | 2."""
    side = np.array([0, 1, 1, 0, 1])
    return linked_hamiltonian(np.not_equal.outer(side, side), 5)


def with_diagonal_entry():
    """:func:`unequal_split` with one static diagonal entry of 1e-300: no split."""
    h = unequal_split()
    static = h.matrices[2].copy()
    static[4, 4] = 1e-300
    return Harmonic(h.frequencies, [*h.matrices[:2], static, *h.matrices[3:]])


def ion_cavity_layout():
    """H1's own pattern (e (x) n linked to g (x) n and g (x) (n + 1)) at rates of order 1."""
    p = regime_params().replace(omega1=1.3, omega2=0.7, delta1=1.0, delta2=-2.5, delta_a=-1.5)
    return model.build_h1(p)


#: each chiral case's H and the smaller sublattice's size, 0 for the near misses
CHIRAL_CASES = {
    "3 | 2, scrambled": lambda: (unequal_split(), 2),
    "ion-cavity 3 | 3": lambda: (ion_cavity_layout(), 3),
    "a diagonal entry of 1e-300": lambda: (with_diagonal_entry(), 0),
    "an odd cycle": lambda: (linked_hamiltonian(~np.eye(3, dtype=bool), 3), 0),
}


class TestGaussLegendre:
    def test_static_hamiltonian_matches_expm(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 4)
        psi0 = qmath.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        times = np.linspace(0.0, 3.0, 7)
        states = schroedinger_evolve(h, psi0, times, tol=1e-13).states
        exact = np.array([scipy.linalg.expm(-1j * h * t) @ psi0 for t in times])
        assert np.max(np.abs(states - exact)) <= 1e-12

    def test_one_period_map_is_unitary(self):
        h, _ = _harmonic_case()
        points = np.linspace(0.0, h.period, 5)
        props = frames._propagators(h, points, np.full(4, 25), np.eye(2, dtype=complex))
        defects = props @ props.conj().transpose(0, 2, 1) - np.eye(2)
        assert np.max(np.abs(defects)) <= 1e-12

    def test_halving_the_step_gains_order_8(self):
        h, psi0 = _harmonic_case()
        points = np.array([0.0, h.period])
        exact = reference_states(h, psi0, points)[-1]
        errors = [
            np.max(np.abs(frames._propagators(h, points, np.array([k]), psi0)[-1] - exact))
            for k in (4, 8)
        ]
        assert errors[1] > 1e-11  # above the reference's own error
        assert errors[0] / errors[1] >= 200.0

    @pytest.mark.parametrize(
        "substeps",
        [[1], [63], [64], [65], [40, 90], [1, 3, 4] * 8, [4, 4, 1, 3, 1, 1, 4, 3, 4, 1] * 3],
    )
    def test_propagators_match_the_step_formula(self, substeps, monkeypatch):
        # the step written out (step_formula_propagators), to the identity and
        # to a ket.  Blocks of 12 steps: their edges fall inside and between the
        # intervals, the 63-, 64- and 65-step intervals span blocks with no
        # interval end, and the last blocks are short.  The last two cases mix
        # the 1-, 3- and 4-step intervals of the effective check
        monkeypatch.setattr(lindblad, "_BLOCK_BYTES", twelve_step_blocks(3))
        rng = np.random.default_rng(len(substeps) + sum(substeps))
        a, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
        nus = [-2.5, -1.0, 0.0, 1.0, 2.5]
        h = Harmonic(nus, [qmath.dag(b), qmath.dag(a), random_hermitian(rng, 3), a, b])
        assert_step_formula(h, substeps, rng)

    @pytest.mark.parametrize("substeps", [[1], [65], [40, 90], [4, 4, 1, 3, 1, 1, 4, 3, 4, 1] * 3])
    @pytest.mark.parametrize("case", CHIRAL_CASES)
    def test_sublattice_steps_match_the_step_formula(self, case, substeps, monkeypatch):
        # Hamiltonians whose terms only link two sublattices solve 4 q rows per
        # stage system, q the smaller sublattice's size; the near misses (one
        # diagonal entry of 1e-300, an odd cycle) solve the full 4 d rows.  All
        # match the written-out full solve, in the blocks of the test above
        h, q = CHIRAL_CASES[case]()
        d = h.matrices.shape[-1]
        monkeypatch.setattr(lindblad, "_BLOCK_BYTES", twelve_step_blocks(d))
        solved, solve = set(), np.linalg.solve

        def recording(a, b):  # the batched stage systems; the written-out steps solve one each
            solved.update([a.shape[1:]] if a.ndim == 3 else [])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        assert_step_formula(h, substeps, np.random.default_rng(sum(substeps)))
        assert solved == {(4 * (q or d),) * 2}

    def test_sublattices_of_the_ion_cavity_hamiltonians(self):
        # every term of H1 flips the ion: the classes e (x) n and g (x) n, 3 | 3 at n_max = 2.
        # Memory chi != 0 carries delta1 sigma_z / 2, and the non-periodic case
        # a dense static term, so they keep the full stage systems
        for case in ["effective-check nonadiabatic", "effective-check memory",
                     "criterion 5 nonadiabatic", "criterion 5 memory chi=0"]:
            order, p = frames._sublattices(EVOLVE_CASES[case][0]()[0])
            assert (p, sorted(order[:3]), sorted(order[3:])) == (3, [0, 1, 2], [3, 4, 5])
        for case in ["criterion 5 memory chi=+1", "criterion 5 memory chi=-1", "non-periodic"]:
            assert frames._sublattices(EVOLVE_CASES[case][0]()[0]) is None

    def test_propagation_allocates_no_block_temporaries(self):
        # the stage systems and maps are written into buffers allocated once per
        # pass: one effective-check integration peaks at 1.08 MB of numpy and
        # Python allocations on its 3 | 3 sublattices (1.31 MB with the full
        # 24-row stage systems), against 1.89 MB when each 64-step block
        # allocated its own stage systems (590 KB at this dimension, 6) and maps
        h, psi0, times = effective_check_case("nonadiabatic")
        tracemalloc.start()
        try:
            schroedinger_evolve(h, psi0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    def test_many_periods_keep_memory_bounded(self):
        # 1.2e6 periods of 2 pi / 3 in 5 samples: whole periods are powers of
        # U(S), taken only between the distinct counts, where a per-period
        # advance kept one ket per period (measured: 0.37 MB, about 0.02 s)
        h, psi0 = _harmonic_case()
        times = np.linspace(0.0, 1.2e6 * h.period, 5)
        schroedinger_evolve(h, psi0, times[:2] / 1e6)
        tracemalloc.start()
        try:
            traj = schroedinger_evolve(h, psi0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.whole_periods == 1_200_000 and peak <= 0.5e6
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) <= 1e-8

    def test_whole_periods_match_the_per_period_advance(self, monkeypatch):
        # samples at most a period apart: each count is one more than the last
        # or the same, so the states equal a per-period advance bit for bit
        h, psi0 = _harmonic_case()
        times = np.linspace(0.0, 3.4 * h.period, 8)  # no sample on a multiple of the period
        kept = []
        propagators = frames._propagators

        def keeping(h, points, substeps, u):
            kept[:] = [points, propagators(h, points, substeps, u)]
            return kept[1]

        monkeypatch.setattr(frames, "_propagators", keeping)
        traj = schroedinger_evolve(h, psi0, times)
        assert traj.whole_periods == 3
        points, props = kept
        whole, rest = np.divmod(times, h.period)
        kets = [psi0]
        for _ in range(3):
            kets.append(props[-1] @ kets[-1])
        where = np.searchsorted(points, rest)
        assert np.array_equal(points[where], rest)
        expected = np.einsum("nij,nj->ni", props[where], np.array(kets)[whole.astype(int)])
        assert np.array_equal(traj.states, expected)

    def test_exhausted_refinements_raise(self, monkeypatch):
        # no estimate reaches a tolerance below rounding: the first pass and
        # twelve doublings run, then the last estimate is reported
        h, psi0 = _harmonic_case()
        passes = []
        propagators = frames._propagators

        def counting(h, points, substeps, u):
            passes.append(int(np.sum(substeps)))
            return propagators(h, points, substeps, u)

        monkeypatch.setattr(frames, "_propagators", counting)
        with pytest.raises(IntegrationDivergenceError) as err:
            schroedinger_evolve(h, psi0, np.linspace(0.0, 0.5, 3), tol=1e-300)
        assert passes == [passes[0] * 2**k for k in range(13)]
        assert err.value.target == 1e-300
        assert err.value.achieved < 1e-12


def package_import_loads(module):
    """Whether ``import reslab, reslab.cli, reslab.scenarios`` in a fresh
    interpreter loads ``module`` (or fails)."""
    code = (
        "import sys; import reslab, reslab.cli, reslab.scenarios; "
        f"sys.exit({module!r} in sys.modules)"
    )
    src = str(Path(reslab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode != 0


def test_package_import_leaves_out_scipy_integrate():
    # the package integrates nothing with scipy.integrate, so importing it
    # (setup time and resident memory) must not load that module
    assert not package_import_loads("scipy.integrate")


def test_package_import_leaves_out_scipy():
    # every exponential and eigendecomposition runs on numpy, so importing the
    # package (setup time and resident memory) must not load scipy at all
    assert not package_import_loads("scipy")
