import numpy as np
import pytest

from reslab import model, qmath
from reslab.errors import RegimeError
from reslab.frames import rotation, to_frame
from reslab.lindblad import Harmonic, LindbladTerm, MasterEquation, apply_generator, evolve, steady_state


def dimensionless_params(**overrides):
    base = dict(
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
    base.update(overrides)
    return model.ModelParams(**base)


def memory_params(chi, lam=200.0, g=1.0, phi1=0.0):
    delta1 = chi * lam
    omega1 = float(np.sqrt(max(lam**2 - delta1**2 / 4.0, 0.0)))
    return model.ModelParams(
        g=g,
        omega1=omega1,
        omega2=0.0,
        phi1=phi1,
        phi2=0.0,
        delta1=delta1,
        delta2=0.0,
        delta_a=-2.0 * lam,
        Gamma=20.0,
        gamma=0.0,
        n_max=2,
    )


class TestModelParams:
    def test_defaults_satisfy_nonadiabatic_constraints(self):
        report = model.check_regime(model.ModelParams(), "nonadiabatic")
        assert report.ok

    def test_phi_property(self):
        p = model.ModelParams(phi1=0.7, phi2=0.2)
        assert p.phi == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            model.ModelParams(omega2=-1.0)
        with pytest.raises(ValueError):
            model.ModelParams(n_max=0)

    def test_constraint_helpers(self):
        p = model.ModelParams(omega1=3.0, omega2=0.5, delta1=1.0, delta2=5.0, delta_a=2.0)
        q = p.replace(**dict(model.branch_of(p, "nonadiabatic").pins.values()))
        assert (q.delta1, q.delta2, q.delta_a) == (0.0, -6.0, -0.5)
        m = p.replace(**dict(model.branch_of(p, "memory").pins.values()))
        assert m.omega2 == 0.0
        lam = np.hypot(3.0, 0.5)
        assert m.delta_a == pytest.approx(-2.0 * lam)


class TestDerivedMemoryParams:
    def test_chi_range_and_coupling(self):
        for chi in (-2.0, -1.0, 0.0, 1.0, 2.0):
            p = memory_params(chi) if abs(chi) < 2 else model.ModelParams(
                omega1=0.0, delta1=chi * 100.0, g=1.0, omega2=0.0
            )
            d = model.DerivedMemoryParams.from_params(p)
            assert -2.0 <= d.chi <= 2.0
            assert d.chi == pytest.approx(chi, abs=1e-12)
            assert d.g_tilde == pytest.approx(p.g * (1.0 - chi / 2.0))

    def test_coupling_is_affine(self):
        g = model.ModelParams().g
        for chi in np.linspace(-2.0, 2.0, 9):
            lam = 100.0
            p = model.ModelParams(
                omega1=lam * np.sqrt(max(1 - chi**2 / 4, 0.0)),
                delta1=lam * chi,
                omega2=0.0,
            )
            d = model.DerivedMemoryParams.from_params(p)
            assert d.chi == pytest.approx(chi, abs=1e-12)
            assert d.g_tilde == pytest.approx(g * (1 - chi / 2), rel=1e-12)
        assert model.DerivedMemoryParams.from_params(
            model.ModelParams(omega1=0.0, delta1=-50.0, omega2=0.0)
        ).g_tilde == pytest.approx(2.0 * g)

    def test_rejects_vanishing_drive(self):
        with pytest.raises(ValueError):
            model.DerivedMemoryParams.from_params(model.ModelParams(omega1=0.0, delta1=0.0))


class TestBases:
    def test_orthonormal_pairs(self):
        phi1, phi = 0.6, -1.1
        pairs = [
            (model.ket_e(), model.ket_g()),
            (model.plus_ket(phi1), model.minus_ket(phi1)),
            (model.up_ket(phi1, phi), model.down_ket(phi1, phi)),
            (model.tilde_plus_ket(0.7, phi1), model.tilde_minus_ket(0.7, phi1)),
        ]
        for a, b in pairs:
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12
            assert abs(np.vdot(a, b)) < 1e-12

    def test_dressed_eigenvectors(self):
        p = dimensionless_params(phi1=0.3, phi2=-0.4)
        g1 = model.drive_generator_1(p)
        assert np.allclose(g1 @ model.plus_ket(p.phi1), p.omega1 * model.plus_ket(p.phi1))
        assert np.allclose(g1 @ model.minus_ket(p.phi1), -p.omega1 * model.minus_ket(p.phi1))
        g2 = model.drive_generator_2(p)
        assert np.allclose(
            g2 @ model.up_ket(p.phi1, p.phi), 0.5 * p.omega2 * model.up_ket(p.phi1, p.phi)
        )
        k = model.memory_generator(memory_params(0.8, phi1=p.phi1))
        d = model.DerivedMemoryParams.from_params(memory_params(0.8, phi1=p.phi1))
        assert np.allclose(
            k @ model.tilde_plus_ket(d.chi, p.phi1), d.lam * model.tilde_plus_ket(d.chi, p.phi1)
        )
        assert np.allclose(
            k @ model.tilde_minus_ket(d.chi, p.phi1), -d.lam * model.tilde_minus_ket(d.chi, p.phi1)
        )


class TestBuildH1:
    def test_zero_couplings(self):
        p = dimensionless_params(g=0.0, omega1=0.0, omega2=0.0)
        assert np.max(np.abs(model.build_h1(p)(0.37))) == 0.0

    def test_resonant_snapshot(self):
        p = dimensionless_params(
            g=0.5, omega1=2.0, omega2=0.25, delta1=0.0, delta2=0.0, delta_a=0.0, n_max=1
        )
        seg = model.sigma(model.ket_e(), model.ket_g())
        a = qmath.fock_annihilation(1)
        upper = 0.5 * np.kron(seg, a) + (2.0 + 0.25) * np.kron(seg, np.eye(2))
        assert np.max(np.abs(model.build_h1(p)(0.0) - (upper + qmath.dag(upper)))) < 1e-14

    def test_hermitian_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = dimensionless_params(
                phi1=rng.uniform(-np.pi, np.pi),
                phi2=rng.uniform(-np.pi, np.pi),
                delta1=rng.normal(),
                delta_a=rng.normal(),
            )
            t = rng.uniform(0.0, 10.0)
            assert qmath.hermitian_defect(model.build_h1(p)(t)) < 1e-12
            assert qmath.hermitian_defect(model.build_h1_memory(p)(t)) < 1e-12


class TestBuildH2:
    def test_requires_constraints(self):
        with pytest.raises(RegimeError) as err:
            model.effective_model(dimensionless_params(delta_a=-19.0), "nonadiabatic")
        assert not err.value.report.ok
        assert "delta_a_minus_omega2" in str(err.value.report)

    def test_spectral_norm_single_excitation(self):
        p = dimensionless_params(n_max=1)
        h2 = model.effective_model(p, "nonadiabatic")[2]
        assert np.linalg.norm(h2, 2) == pytest.approx(p.g / 2.0, rel=1e-12)

    def test_phase_shift_flips_sign(self):
        p0 = dimensionless_params(n_max=1)
        p1 = p0.replace(phi1=p0.phi1 + np.pi)
        h0, h1 = (model.effective_model(q, "nonadiabatic")[2] for q in (p0, p1))
        assert np.max(np.abs(h0 + h1)) < 1e-12

    def test_matrix_elements(self):
        p = dimensionless_params(phi1=0.8, n_max=1)
        h2 = model.effective_model(p, "nonadiabatic")[2]
        # basis (up, down) x (|0>, |1>): index = 2*tl + fock
        up1, down0 = 1, 2
        assert h2[up1, down0] == pytest.approx(0.5 * p.g * np.exp(1j * p.phi1))
        assert h2[down0, up1] == pytest.approx(0.5 * p.g * np.exp(-1j * p.phi1))

    def test_memory_coupling_endpoints(self):
        # chi = 0: full coupling; chi = 2: vanishes; chi = -2: doubled
        h0 = model.effective_model(memory_params(0.0).replace(n_max=1), "memory")[2]
        assert np.linalg.norm(h0, 2) == pytest.approx(0.5, rel=1e-9)
        p2 = model.ModelParams(
            g=1.0, omega1=0.0, omega2=0.0, delta1=200.0, delta_a=-200.0, Gamma=20.0, n_max=1
        )
        assert np.max(np.abs(model.effective_model(p2, "memory")[2])) < 1e-12
        pm2 = p2.replace(delta1=-200.0)
        h2 = model.effective_model(pm2, "memory")[2]
        assert np.linalg.norm(h2, 2) == pytest.approx(1.0, rel=1e-9)


def h2_closed_form(p, branch):
    """The engineered coupling (c/2)(e^{i phi1} a^dag |P><M| + h.c.) in the
    (protected P, pumped M) x Fock basis, with the coupling c = g, or
    g (1 - chi/2) with chi = delta1 / lambda on the memory branch."""
    chi = p.delta1 / np.hypot(p.omega1, 0.5 * p.delta1)
    c = p.g if branch == "nonadiabatic" else p.g * (1.0 - 0.5 * chi)
    pm = model.sigma(qmath.basis_ket(2, 0), qmath.basis_ket(2, 1))
    upper = 0.5 * c * np.exp(1j * p.phi1) * np.kron(pm, qmath.dag(qmath.fock_annihilation(p.n_max)))
    return upper + qmath.dag(upper)


def h2_reference_cases():
    """(branch, params) on both branches, at g = 1 and at the defaults' scale."""
    defaults = model.ModelParams()
    for phi1, phi2 in ((0.0, 0.0), (0.4, 1.1), (-2.3, 0.6), (5.592147, 3.417427)):
        yield "nonadiabatic", dimensionless_params(phi1=phi1, phi2=phi2)
        yield "nonadiabatic", defaults.replace(phi1=phi1, phi2=phi2)
        for chi in (-1.2, 0.0, 0.5):
            yield "memory", memory_params(chi, phi1=phi1).replace(phi2=phi2)
            at_defaults = memory_params(chi, lam=defaults.omega1, g=defaults.g, phi1=phi1)
            yield "memory", at_defaults.replace(phi2=phi2)
    # H1's frequencies seen from this frame cancel only up to rounding
    yield "nonadiabatic", defaults.replace(
        g=33316.01509368366, omega1=206583.4073766256, omega2=51818.38942462618,
        phi1=4.270767664030135, phi2=6.491392219829592, delta_a=-51818.38942462618,
        delta2=-413166.8147532512,
    )


class TestH2ClosedForm:
    @pytest.mark.parametrize("branch, p", list(h2_reference_cases()))
    def test_derived_h2_is_the_closed_form(self, branch, p):
        # effective_model averages H1 in the branch frame; the closed form is the reference
        expected = h2_closed_form(p, branch)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(model.effective_model(p, branch)[2] - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("g", [1e2, 1e3])
    @pytest.mark.parametrize("branch", ["nonadiabatic", "memory"])
    def test_small_coupling(self, branch, g):
        # the drive terms cancel in the average, leaving an error set by max|H1|,
        # not by g: at these phases it would break Hermiticity by ~1e-9 > 1e-10
        defaults = model.ModelParams()
        phi1, phi2 = 1.8535801469589548, 4.830335426435867
        if branch == "nonadiabatic":
            p = defaults.replace(g=g, phi1=phi1, phi2=phi2)
        else:
            p = memory_params(-1.2, lam=defaults.omega1, g=g, phi1=phi1).replace(phi2=phi2)
        h1, _, h2 = model.effective_model(p, branch)
        assert np.array_equal(h2, qmath.dag(h2))
        scale = max(np.max(np.abs(m)) for m in h1.matrices)
        assert np.max(np.abs(h2 - h2_closed_form(p, branch))) <= 1e-14 * scale
        model.full_system_master_equation(p, branch, include_gamma=True).liouvillian
        rho, _ = steady_state(model.full_system_master_equation(p, branch))
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)


class TestEngineeredRate:
    def test_reference_magnitudes(self):
        p = model.ModelParams(g=1e5, Gamma=1e6, gamma=1e2)
        assert model.engineered_rate(p) == 1e4
        assert model.engineered_rate(p) / p.gamma == 100.0

    def test_zero_coupling(self):
        assert model.engineered_rate(model.ModelParams(g=0.0)) == 0.0

    def test_memory_matches_at_chi_zero(self):
        p = memory_params(0.0)
        assert model.engineered_rate(p, "memory") == pytest.approx(
            model.engineered_rate(p, "nonadiabatic")
        )

    def test_rejects_zero_gamma_cavity(self):
        with pytest.raises(ValueError):
            model.engineered_rate(model.ModelParams(Gamma=0.0))


class TestEpsilonClosedForm:
    def test_reference_values(self):
        assert model.epsilon_closed_form(10.0) == pytest.approx(3.0 / 86.0, abs=1e-15)
        assert model.epsilon_closed_form(0.0) == 0.5
        assert model.epsilon_closed_form(0.0, "memory") == 0.5
        assert model.epsilon_closed_form(100.0, "memory") == pytest.approx(1.0 / 102.0, abs=1e-15)

    def test_monotone_decreasing(self):
        ratios = np.linspace(0.0, 50.0, 40)
        for branch in ("nonadiabatic", "memory"):
            vals = [model.epsilon_closed_form(r, branch) for r in ratios]
            assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
        assert model.epsilon_closed_form(1e12) < 1e-11


class TestReducedMasterEquation:
    def test_pure_fixed_point_without_decay(self):
        me = model.reduced_master_equation(dimensionless_params(), "nonadiabatic")
        rho, _ = steady_state(me)
        assert qmath.trace_distance(rho, np.diag([1.0, 0.0])) < 1e-9

    def test_rate_equation_steady_state(self):
        p = model.ModelParams(g=np.sqrt(10.0), Gamma=1.0, gamma=1.0)  # rate_eng = 10 gamma
        me = model.reduced_master_equation(p, "nonadiabatic", include_gamma=True)
        rho, _ = steady_state(me)
        assert abs(np.real(rho[0, 0]) - 10.375 / 11.5) < 1e-9

    def test_coherences_vanish_asymptotically(self):
        p = model.ModelParams(g=np.sqrt(10.0), Gamma=1.0, gamma=1.0)
        me = model.reduced_master_equation(p, "nonadiabatic", include_gamma=True)
        rho0 = qmath.projector(qmath.normalized([1.0, 1.0]))
        traj = evolve(me, rho0, np.linspace(0.0, 10.0, 11))
        assert abs(traj.final[0, 1]) < 1e-9
        assert abs(steady_state(me)[0][0, 1]) < 1e-12

    def test_memory_gamma_not_defined(self):
        with pytest.raises(ValueError):
            model.reduced_master_equation(memory_params(0.0), "memory", include_gamma=True)

    def test_generator_matches_rate_equations(self):
        # engine assembly (jump + extra generator) reproduces the closed
        # dressed-basis rate equations
        #   d rho_uu/dt = (rate + 3 gamma/8) - (rate + 6 gamma/4) rho_uu
        #   d rho_ud/dt = -(rate/2 + 5 gamma/4) rho_ud + (gamma/8) rho_du
        p = model.ModelParams(g=2.0, Gamma=5.0, gamma=0.7)
        rate, gamma = model.engineered_rate(p), p.gamma
        me = model.reduced_master_equation(p, "nonadiabatic", include_gamma=True)
        rng = np.random.default_rng(1)
        for _ in range(5):
            uu = rng.uniform(0.0, 1.0)
            ud = rng.normal() + 1j * rng.normal()
            rho = np.array([[uu, ud], [np.conj(ud), 1.0 - uu]])
            out = apply_generator(me, rho)
            duu = (rate + 3.0 * gamma / 8.0) - (rate + 6.0 * gamma / 4.0) * uu
            dud = -(rate / 2.0 + 5.0 * gamma / 4.0) * ud + (gamma / 8.0) * np.conj(ud)
            assert abs(out[0, 0] - duu) < 1e-12
            assert abs(out[1, 1] + duu) < 1e-12
            assert abs(out[0, 1] - dud) < 1e-12
            assert abs(out[1, 0] - np.conj(dud)) < 1e-12


def bloch_rhs(rate, gamma, uu, ud):
    """``d rho/dt`` of the reduced model with the dressed rate equations, as
    the engine assembles it, at ``rho = [[uu, ud], [ud*, 1 - uu]]``."""
    p = model.ModelParams(g=np.sqrt(rate), Gamma=1.0, gamma=gamma)
    me = model.reduced_master_equation(p, "nonadiabatic", include_gamma=True)
    return apply_generator(me, np.array([[uu, ud], [np.conj(ud), 1.0 - uu]]))


class TestBlochOdeRhs:
    """Properties of the closed dressed-basis rate equations, checked on the
    generator that carries them (the reduced master equation)."""

    def test_fixed_point_without_decay(self):
        d = bloch_rhs(3.0, 0.0, 1.0, 0.0)
        assert np.max(np.abs(d)) == 0.0

    def test_decay_only_steady_population(self):
        gamma = 1.6
        d = bloch_rhs(0.0, gamma, 0.25, 0.0)
        assert abs(d[0, 0]) < 1e-12

    def test_population_conservation(self):
        d = bloch_rhs(2.0, 0.5, 0.3, 0.1 + 0.2j)
        assert d[0, 0] == -d[1, 1]
        assert d[1, 0] == np.conj(d[0, 1])

    def test_coherence_block_eigenvalues(self):
        # eigenmodes of the coherence pair: conjugation-symmetric inputs
        # (ud, du) = (1, 1) and (i, -i) diagonalize the block
        rate, gamma = 2.0, 0.8
        a = rate / 2.0 + 5.0 * gamma / 4.0
        d_sym = bloch_rhs(rate, gamma, 0.5, 1.0)
        assert d_sym[0, 1] == pytest.approx(-a + gamma / 8.0)
        d_anti = bloch_rhs(rate, gamma, 0.5, 1j)
        assert d_anti[0, 1] / 1j == pytest.approx(-a - gamma / 8.0)


class TestProtectedStates:
    def test_initial_state_is_excited(self):
        p = dimensionless_params()
        assert np.allclose(model.protected_state_nonadiabatic(p, 0.0), model.ket_e())

    def test_returns_to_excited_for_any_phase(self):
        p = dimensionless_params(phi1=0.9, phi2=-0.5)
        t_star = p.phi / (2.0 * p.omega1)
        psi = model.protected_state_nonadiabatic(p, t_star)
        assert abs(abs(np.vdot(psi, model.ket_e())) - 1.0) < 1e-12

    def test_null_vector_of_transformed_jump(self):
        p = dimensionless_params(phi1=0.3, phi2=0.7)
        r = rotation(model.branch_of(p, "nonadiabatic").generators())
        jump = model.sigma(model.up_ket(p.phi1, p.phi), model.down_ket(p.phi1, p.phi))
        for t in np.linspace(0.0, 0.05, 7):
            rt = r(t)
            o_t = rt @ jump @ qmath.dag(rt)
            psi = model.protected_state_nonadiabatic(p, t)
            assert np.linalg.norm(o_t @ psi) < 1e-9
            # and it is the frame-evolved protected ray
            ray = rt @ model.up_ket(p.phi1, p.phi)
            assert abs(abs(np.vdot(ray, psi)) - 1.0) < 1e-10

    def test_memory_null_vector(self):
        for chi in (0.0, 1.0, -1.0):
            p = memory_params(chi, phi1=0.4)
            d = model.DerivedMemoryParams.from_params(p)
            r = rotation(model.branch_of(p, "memory").generators())
            jump = model.sigma(
                model.tilde_plus_ket(d.chi, p.phi1), model.tilde_minus_ket(d.chi, p.phi1)
            )
            for t in np.linspace(0.0, 0.05, 5):
                rt = r(t)
                o_t = rt @ jump @ qmath.dag(rt)
                psi = model.protected_state_memory(p, t)
                assert np.linalg.norm(o_t @ psi) < 1e-9

    def test_memory_stationary_at_resonance(self):
        p = memory_params(0.0, phi1=0.2)
        psi0 = model.protected_state_memory(p, 0.0)
        psi1 = model.protected_state_memory(p, 1.7)
        assert np.max(np.abs(psi0 - psi1)) < 1e-12
        assert np.allclose(psi0, model.plus_ket(p.phi1))

    def test_memory_ground_state_limit(self):
        p = model.ModelParams(omega1=0.0, omega2=0.0, delta1=-100.0, delta_a=-100.0)
        psi = model.protected_state_memory(p, 0.3)
        assert abs(abs(np.vdot(psi, model.ket_g())) - 1.0) < 1e-12

    def test_memory_normalized_across_chi(self):
        for chi in np.linspace(-2.0, 2.0, 9):
            p = model.ModelParams(
                omega1=100.0 * np.sqrt(max(1 - chi**2 / 4, 0.0)) if abs(chi) < 2 else 0.0,
                delta1=100.0 * chi if abs(chi) < 2 else 50.0 * np.sign(chi),
                omega2=0.0,
            )
            assert abs(np.linalg.norm(model.protected_state_memory(p, 0.9)) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "path",
        [
            model.protected_state_nonadiabatic,
            model.protected_state_dressed_gauge,
            model.protected_state_memory,
        ],
    )
    def test_grid_matches_scalar_calls(self, path):
        p = memory_params(0.8, phi1=0.4).replace(omega2=20.0, phi2=-0.3)
        times = np.linspace(0.0, 0.05, 33)
        grid = path(p, times)
        assert grid.shape == (33, 2)
        assert np.max(np.abs(grid - np.array([path(p, t) for t in times]))) <= 1e-15

    def test_bloch_meridian_motion(self):
        # phi1 = phi = 0: (x, y, z) = (0, -sin 2 w1 t, cos 2 w1 t)
        p = dimensionless_params()
        basis = (model.ket_e(), model.ket_g())
        for t in np.linspace(0.0, np.pi / p.omega1, 9):
            x, y, z = qmath.bloch_vector(
                qmath.projector(model.protected_state_nonadiabatic(p, t)), basis
            )
            assert abs(x) < 1e-12
            assert y == pytest.approx(-np.sin(2.0 * p.omega1 * t), abs=1e-12)
            assert z == pytest.approx(np.cos(2.0 * p.omega1 * t), abs=1e-12)


class TestDriveInteractionHamiltonian:
    def test_matches_frame_generator(self):
        # i dR/dt R^dag of the composed frame by a central finite difference
        p = dimensionless_params(phi1=0.5, phi2=-0.2)
        r = rotation(model.branch_of(p, "nonadiabatic").generators())
        h = model.drive_interaction_hamiltonian(p)
        dt = 1e-7
        for t in (0.0, 0.013, 0.4):
            rdot = (r(t + dt) - r(t - dt)) / (2.0 * dt)
            assert np.max(np.abs(1j * rdot @ qmath.dag(r(t)) - h(t))) < 1e-5

    def test_constant_expectation_on_protected_path(self):
        p = dimensionless_params(phi1=0.5, phi2=-0.2)
        h = model.drive_interaction_hamiltonian(p)
        for t in np.linspace(0.0, 0.01, 5):
            psi = model.protected_state_nonadiabatic(p, t)
            e = np.real(np.vdot(psi, h(t) @ psi))
            assert e == pytest.approx(p.omega2 / 2.0, abs=1e-10)


class TestDressedFrame:
    @pytest.mark.parametrize("branch", ["nonadiabatic", "memory"])
    def test_starts_at_the_basis_and_stays_unitary(self, branch):
        if branch == "nonadiabatic":
            p = dimensionless_params(phi1=0.4, phi2=1.1)
        else:
            p = memory_params(0.8, phi1=0.4)
        b = model.branch_of(p, branch)
        assert np.max(np.abs(b.dressed_frame(0.0) - b.basis)) < 1e-15
        for u in b.dressed_frame(np.linspace(0.0, 0.1, 17)):
            assert np.max(np.abs(qmath.dag(u) @ u - np.eye(2))) < 1e-13

    def test_memory_frame_omits_the_detuning_rotation(self):
        # the branch frame is exp(-i delta1 sigma_z t / 2) exp(-i K t), and the
        # memory Hamiltonian is already written in the first factor's frame
        p = memory_params(0.8, phi1=0.4)
        b = model.branch_of(p, "memory")
        evals, v = np.linalg.eigh(model.memory_generator(p))
        for t in np.linspace(0.0, 0.05, 7):
            frame = b.dressed_frame(t)
            expected = v @ np.diag(np.exp(-1j * evals * t)) @ qmath.dag(v) @ b.basis
            assert np.max(np.abs(frame - expected)) < 1e-12
            detuning = np.diag(np.exp([-0.5j * p.delta1 * t, 0.5j * p.delta1 * t]))
            whole = rotation(b.generators())(t) @ b.basis
            assert np.max(np.abs(whole - detuning @ frame)) < 1e-12


class TestFullSystemMasterEquation:
    def test_closed_limit_preserves_purity(self):
        # vanishing cavity decay: the two-part model is closed
        p = dimensionless_params(Gamma=1e-300, gamma=0.0)
        me = model.full_system_master_equation(p, "nonadiabatic")
        psi0 = np.kron(model.down_ket(p.phi1, p.phi), qmath.basis_ket(p.n_max + 1, 0))
        traj = evolve(me, qmath.projector(psi0), np.linspace(0.0, 3.0, 7))
        for s in traj.states:
            assert np.real(np.trace(s @ s)) == pytest.approx(1.0, abs=1e-8)

    def test_exact_frame_keeps_the_conjugated_h1(self):
        # F^dag H1 F - i F^dag dF/dt at sampled times, dF/dt from F's harmonics
        for branch, p in (("nonadiabatic", dimensionless_params(phi1=0.3, phi2=-0.7, gamma=0.1)),
                          ("memory", memory_params(0.5, phi1=0.3).replace(gamma=0.1))):
            me = model.full_system_master_equation(p, branch, frame="exact", include_gamma=True)
            h1, f, _ = model.effective_model(p, branch)
            df = Harmonic(f.frequencies, -1j * f.frequencies[:, None, None] * f.matrices)
            for t in (0.0, 0.0071, 0.23):
                ft = f(t)
                expected = qmath.dag(ft) @ (h1(t) @ ft - 1j * df(t))
                assert np.max(np.abs(me.hamiltonian_at(t) - expected)) < 1e-12 * np.max(np.abs(h1.matrices))
            assert len(me.terms) == 2

    @pytest.mark.parametrize("branch", ["nonadiabatic", "memory"])
    def test_arms_differ_in_the_hamiltonian_alone(self, branch):
        # one frame F for both arms: the same jumps to the bit, and H2 is the
        # Hermitian part of the exact Hamiltonian's mean to the bit
        if branch == "nonadiabatic":
            p = dimensionless_params(phi1=0.3, phi2=-0.7, gamma=0.1)
        else:
            p = memory_params(0.5, phi1=0.3).replace(gamma=0.1)
        exact, dressed = (
            model.full_system_master_equation(p, branch, frame=frame, include_gamma=True)
            for frame in ("exact", "dressed-effective")
        )
        for ours, theirs in zip(exact.terms, dressed.terms, strict=True):
            a, b = ours.operator, theirs.operator
            if isinstance(a, Harmonic):
                assert np.array_equal(a.frequencies, b.frequencies)
                a, b = a.matrices, b.matrices
            assert ours.rate == theirs.rate and np.array_equal(a, b)
        m = exact.hamiltonian.mean
        assert np.array_equal(0.5 * (m + qmath.dag(m)), dressed.hamiltonian)

    @pytest.mark.parametrize("branch", ["nonadiabatic", "memory"])
    def test_exact_frame_evolves_like_the_bare_model(self, branch):
        # the model of H1 as Branch.h1 builds it, with |g><e| x 1 and the cavity
        # jump, mapped by F(t)^dag . F(t); the largest difference over half a
        # period at tol 1e-10 was 5.4e-12 (nonadiabatic) and 1.9e-12 (memory,
        # chi = 0.5) on four phase pairs
        if branch == "nonadiabatic":
            p = dimensionless_params(phi1=0.3, phi2=-0.7, gamma=0.1)
        else:
            p = memory_params(0.5, phi1=0.3).replace(gamma=0.1)
        eye_f = np.eye(p.n_max + 1)
        terms = (
            LindbladTerm(p.Gamma, np.kron(np.eye(2), qmath.fock_annihilation(p.n_max))),
            LindbladTerm(p.gamma, np.kron(model.sigma(model.ket_g(), model.ket_e()), eye_f)),
        )
        bare = MasterEquation(2 * (p.n_max + 1), model.branch_of(p, branch).h1(), terms)
        exact = model.full_system_master_equation(p, branch, frame="exact", include_gamma=True)
        f = model.effective_model(p, branch)[1]
        times = np.linspace(0.0, 0.5 * exact.liouvillian.period, 9)
        rho0 = qmath.projector(np.kron(model.branch_of(p, branch).kets()[1], qmath.basis_ket(p.n_max + 1, 0)))
        ours = evolve(exact, qmath.dag(f(0.0)) @ rho0 @ f(0.0), times, tol=1e-10).states
        fs = f(times)
        theirs = np.conj(np.swapaxes(fs, 1, 2)) @ evolve(bare, rho0, times, tol=1e-10).states @ fs
        assert np.max(np.abs(ours - theirs)) < 2e-11

    def test_bare_frame_is_unknown(self):
        with pytest.raises(ValueError, match="unknown frame 'bare'"):
            model.full_system_master_equation(dimensionless_params(), frame="bare")

    @pytest.mark.parametrize("branch", ["nonadiabatic", "memory"])
    def test_dressed_decay_jump_matches_conjugated_sampler(self, branch):
        # independent reference: the frame R(t) conjugating |g><e| directly; the
        # memory Hamiltonian is already in the frame of the first generator
        rng = np.random.default_rng(7)
        s_ge = model.sigma(model.ket_g(), model.ket_e())
        for phi1, phi2 in ((0.0, 0.0), (0.4, 1.1), (-2.3, 0.6)):
            if branch == "nonadiabatic":
                p = dimensionless_params(phi1=phi1, phi2=phi2)
                r = rotation(model.branch_of(p, "nonadiabatic").generators())
            else:
                p = memory_params(0.8, phi1=phi1)
                r = rotation(model.branch_of(p, "memory").generators()[1:])
            w = model.branch_of(p, branch).basis
            jump = model.dressed_decay_jump(p, branch)
            for t in rng.uniform(0.0, 0.1, 5):
                rt = r(t)
                direct = qmath.dag(w) @ qmath.dag(rt) @ s_ge @ rt @ w
                assert np.max(np.abs(jump(t) - direct)) < 1e-12

    def test_dressed_gamma_jump_at_origin(self):
        p = dimensionless_params(gamma=0.1)
        me = model.full_system_master_equation(
            p, "nonadiabatic", frame="dressed-effective", include_gamma=True
        )
        w = model.branch_of(p, "nonadiabatic").basis
        s_ge = model.sigma(model.ket_g(), model.ket_e())
        expected = np.kron(qmath.dag(w) @ s_ge @ w, np.eye(p.n_max + 1))
        assert np.max(np.abs(me.terms[1].operator_at(0.0) - expected)) < 1e-12

    def test_dressed_generator_without_gamma_is_static(self):
        # the frame acts on the two-level factor alone, so H2 and the cavity jump
        # stay static, and so does the generator
        me = model.full_system_master_equation(model.ModelParams())
        assert me.liouvillian.frequencies.tolist() == [0.0]
        rho, _ = steady_state(me)
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("branch", ["nonadiabatic", "memory"])
    def test_decay_jump_is_the_dressed_jump_up_to_a_phase(self, branch):
        # one frame turns both jumps, so the full model's is the dressed one x 1
        # to the bit
        if branch == "nonadiabatic":
            p = dimensionless_params(phi1=0.3, phi2=-0.8, gamma=0.1)
        else:
            p = memory_params(0.5, phi1=0.3).replace(gamma=0.1)
        me = model.full_system_master_equation(p, branch, include_gamma=True)
        jump = model.dressed_decay_jump(p, branch)
        eye_f = np.eye(p.n_max + 1)
        lifted, decay = jump.map(lambda o: np.kron(o, eye_f)), me.terms[1].operator
        assert np.array_equal(decay.frequencies, lifted.frequencies)
        assert np.array_equal(decay.matrices, lifted.matrices)
        # the jump of the whole branch frame, R = rotation(generators()), adds
        # exp(-i delta1 sigma_z t / 2) on the memory branch, which turns |g><e| by
        # exp(-i delta1 t): D[.] is the same; delta1 = 0 otherwise
        b = model.branch_of(p, branch)
        w = b.basis
        whole = to_frame(rotation(b.generators()).map(lambda u: u @ w),
                         model.sigma(model.ket_g(), model.ket_e()))
        ours, theirs = (LindbladTerm(p.gamma, o).superoperator() for o in (jump, whole))
        assert np.max(np.abs(ours.mean - theirs.mean)) < 1e-12
        for t in (0.0, 0.013, 0.4):
            assert np.max(np.abs(jump(t) - np.exp(1j * p.delta1 * t) * whole(t))) < 1e-12
            assert np.max(np.abs(ours(t) - theirs(t))) < 1e-12

    def test_photon_population_small_excitation(self):
        p = dimensionless_params()
        rate = model.engineered_rate(p)
        me = model.full_system_master_equation(p, "nonadiabatic")
        rho0 = qmath.projector(np.kron(qmath.basis_ket(2, 1), qmath.basis_ket(3, 0)))
        traj = evolve(me, rho0, np.linspace(0.0, 5.0 / rate, 51))
        number_op = np.kron(np.eye(2), np.diag([0.0, 1.0, 2.0]))
        peak = max(float(np.real(np.trace(s @ number_op))) for s in traj.states)
        assert peak <= 1.5 * rate / p.Gamma


class TestRegimeReport:
    def test_residual_values(self):
        p = dimensionless_params(delta2=-790.0)
        report = model.check_regime(p, "nonadiabatic")
        assert not report.ok
        ok, res = report.checks["delta2_minus_two_omega1"]
        assert not ok and res == pytest.approx(10.0)
        assert report.ratios["omega1_over_omega2"] == pytest.approx(20.0)
        assert report.ratios["Gamma_over_g"] == pytest.approx(20.0)

    def test_memory_checks(self):
        p = memory_params(0.5)
        report = model.check_regime(p, "memory")
        assert report.ok
        bad = model.check_regime(p.replace(omega2=1.0), "memory")
        assert not bad.ok
