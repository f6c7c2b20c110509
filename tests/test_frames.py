import numpy as np
import pytest
import scipy.linalg

from reslab import model, qmath
from reslab.errors import DimensionMismatchError
from reslab.frames import (
    FrameTransform,
    compare_effective,
    conjugate_operator,
    transformed_dissipator_average,
)
from reslab.lindblad import Harmonic, LindbladTerm, dissipator_matrix, unvec, vec

SIGMA_GE = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


class TestFrameTransform:
    def test_static_generator_frame(self):
        rng = np.random.default_rng(0)
        g = random_hermitian(rng, 3)
        frame = FrameTransform((g,))
        assert np.max(np.abs(frame(0.0) - np.eye(3))) < 1e-12
        for t in (0.3, 1.7):
            u = frame(t)
            assert np.max(np.abs(qmath.dag(u) @ u - np.eye(3))) < 1e-10
            assert np.max(np.abs(u - scipy.linalg.expm(-1j * g * t))) < 1e-12

    def test_compose_generator(self):
        rng = np.random.default_rng(1)
        g1, g2 = random_hermitian(rng, 2), random_hermitian(rng, 2)
        composed = FrameTransform((g1, g2))
        t = 0.41
        u1 = scipy.linalg.expm(-1j * g1 * t)
        assert np.max(np.abs(composed(t) - u1 @ scipy.linalg.expm(-1j * g2 * t))) < 1e-12
        # i dR/dt R^dag by finite differences against G_1 + U_1 G_2 U_1^dag
        dt = 1e-7
        rdot = (composed(t + dt) - composed(t - dt)) / (2 * dt)
        h_num = 1j * rdot @ qmath.dag(composed(t))
        assert np.max(np.abs(h_num - (g1 + u1 @ g2 @ qmath.dag(u1)))) < 1e-5


class TestConjugateOperator:
    def test_identity_frame(self):
        o = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert np.array_equal(conjugate_operator(np.eye(2), o), o)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            o = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            u = scipy.linalg.expm(-0.7j * random_hermitian(rng, 3))
            before = np.sort_complex(np.linalg.eigvals(o))
            after = np.sort_complex(np.linalg.eigvals(conjugate_operator(u, o)))
            assert np.max(np.abs(before - after)) < 1e-9
            assert abs(np.linalg.norm(o) - np.linalg.norm(conjugate_operator(u, o))) < 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            conjugate_operator(np.eye(3), np.eye(2))


class TestDissipatorAverage:
    def test_static_passthrough(self):
        term = LindbladTerm(rate=0.7, operator=SIGMA_GE, factor=1.0)
        frag = transformed_dissipator_average(term)
        assert np.max(np.abs(frag - dissipator_matrix(SIGMA_GE, 0.7, 1.0))) < 1e-12

    def test_global_phase_invariance(self):
        omega = 2.0 * np.pi * 3.0
        term = LindbladTerm(rate=0.9, operator=Harmonic([-omega], [SIGMA_GE]), factor=1.0)
        frag = transformed_dissipator_average(term)
        assert np.max(np.abs(frag - dissipator_matrix(SIGMA_GE, 0.9, 1.0))) < 1e-12

    def test_fragment_is_valid_generator(self):
        gamma = 1.3
        p = dressed_decay_params(gamma)
        term = dressed_decay_term(p)
        frag = transformed_dissipator_average(term)
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
        frag = transformed_dissipator_average(dressed_decay_term(p))
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
        term = LindbladTerm(
            rate=p.gamma, operator=model.dressed_decay_jump(p, branch), factor=0.5
        )
        n = 512
        ts = (np.arange(n) + 0.5) * (period / n)
        brute = sum(dissipator_matrix(term.operator_at(t), term.rate, term.factor) for t in ts) / n
        assert np.max(np.abs(transformed_dissipator_average(term) - brute)) < 1e-12


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
    return LindbladTerm(
        rate=p.gamma, operator=model.dressed_decay_jump(p, "nonadiabatic"), factor=0.5
    )


class TestCompareEffective:
    def test_identical_generators(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 3)
        psi0 = qmath.normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        comp = compare_effective(h, h, psi0, 2.0, n_samples=21)
        assert comp.worst_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_resonant_regime_floor(self):
        p = regime_params()
        comp = run_h1_h2_comparison(p)
        # regression floor frozen from the first converged run (0.99835)
        assert comp.worst_fidelity >= 0.998

    def test_violated_detuning_degrades(self):
        p = regime_params()
        good = run_h1_h2_comparison(p).worst_fidelity
        bad_p = p.replace(delta2=-0.9 * 2.0 * p.omega1)
        bad = run_h1_h2_comparison(bad_p, enforce=False).worst_fidelity
        assert bad < good
        assert bad < 0.9


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
    h2 = (
        model.build_h2_effective(p)
        if enforce
        else model.build_h2_effective(model.apply_nonadiabatic_constraints(p))
    )
    frame = model.effective_check_frame(p, "nonadiabatic")
    psi0 = np.kron(model.up_ket(p.phi1, p.phi), qmath.basis_ket(p.n_max + 1, 0))
    return compare_effective(model.build_h1(p), h2, psi0, 2.0, n_samples=101, frame=frame)
