import numpy as np
import pytest

from reslab import model, qmath
from reslab.errors import IllConditionedPathError
from reslab.frames import schroedinger_evolve
from reslab.phases import (
    dynamic_phase,
    export_bloch_path,
    geometric_phase,
    phase_record,
    principal_phase,
)


def cycle_params(omega2_over_omega1=0.05, phi1=0.0, phi2=0.0):
    omega1 = 1.0
    return model.ModelParams(
        g=0.1,
        omega1=omega1,
        omega2=omega2_over_omega1 * omega1,
        phi1=phi1,
        phi2=phi2,
        delta1=0.0,
        delta2=-2.0 * omega1,
        delta_a=-omega2_over_omega1 * omega1,
        Gamma=2.0,
        gamma=0.0,
        n_max=1,
    )


def protected_cycle(p, n=4097):
    times = np.linspace(0.0, np.pi / p.omega1, n)
    return times, model.protected_state_nonadiabatic(p, times)


class TestPrincipalPhase:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 0.0), (np.pi, -np.pi), (-np.pi, -np.pi), (-0.3, -0.3), (2 * np.pi + 0.1, 0.1 - 2 * np.pi)],
    )
    def test_folding(self, x, expected):
        assert principal_phase(x) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        for x in np.linspace(-10.0, 10.0, 101):
            y = principal_phase(x)
            assert -2.0 * np.pi < y <= 0.0


class TestGeometricPhase:
    def test_protected_cycle_is_minus_pi(self):
        times, states = protected_cycle(cycle_params())
        assert geometric_phase(states) == pytest.approx(-np.pi, abs=1e-3)

    def test_constant_trajectory(self):
        psi = qmath.normalized([1.0, 0.5j])
        assert geometric_phase([psi] * 50) == pytest.approx(0.0, abs=1e-12)

    def test_latitude_circles_give_half_solid_angle(self):
        for theta in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
            phis = np.linspace(0.0, 2.0 * np.pi, 4001)
            states = [
                np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * ph)])
                for ph in phis
            ]
            solid = 2.0 * np.pi * (1.0 - np.cos(theta))
            assert geometric_phase(states) == pytest.approx(-solid / 2.0, abs=1e-5)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(3)
        times, states = protected_cycle(cycle_params(phi1=0.4, phi2=-0.3), n=1001)
        reference = geometric_phase(states)
        gauged = [s * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) for s in states]
        assert abs(geometric_phase(gauged) - reference) < 1e-9

    def test_resampling_stability(self):
        p = cycle_params()
        _, coarse = protected_cycle(p, n=2049)
        _, fine = protected_cycle(p, n=4097)
        assert abs(geometric_phase(fine) - geometric_phase(coarse)) < 1e-5

    def test_matches_sequential_overlaps(self):
        # reference: the overlaps taken one step at a time, the closure last
        rng = np.random.default_rng(5)
        _, states = protected_cycle(cycle_params(phi1=0.4, phi2=-0.3), n=1001)
        states = states * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(states)))[:, None]
        loop = list(states) + [states[0]]
        acc = sum(float(np.angle(np.vdot(b, a))) for a, b in zip(loop[:-1], loop[1:]))
        expected = principal_phase(acc)
        assert abs(geometric_phase(states) - expected) < 1e-12
        assert abs(geometric_phase(list(states)) - expected) < 1e-12

    def test_ill_conditioned_path(self):
        with pytest.raises(IllConditionedPathError):
            geometric_phase([np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])])

    def test_ill_conditioned_closure(self):
        # every step overlaps by 1/sqrt(2); the closure back to the start is orthogonal
        path = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([0.0, 1.0])]
        with pytest.raises(IllConditionedPathError):
            geometric_phase(path)


class TestDynamicPhase:
    def test_protected_cycle_value(self):
        p = cycle_params()
        times, states = protected_cycle(p)
        dyn = dynamic_phase(states, times, model.drive_interaction_hamiltonian(p))
        assert dyn == pytest.approx(-np.pi * p.omega2 / (2.0 * p.omega1), abs=1e-3)
        assert dyn == pytest.approx(-np.pi * p.omega2 / (2.0 * p.omega1), abs=1e-9)

    def test_zero_hamiltonian(self):
        times, states = protected_cycle(cycle_params(), n=101)
        zero = np.zeros((2, 2))
        assert dynamic_phase(states, times, zero) == 0.0

    def test_vanishes_without_second_drive(self):
        p = cycle_params(omega2_over_omega1=0.0)
        times, states = protected_cycle(p, n=801)
        dyn = dynamic_phase(states, times, model.drive_interaction_hamiltonian(p))
        assert abs(dyn) < 1e-10

    def test_grid_doubling_stable(self):
        p = cycle_params()
        t1, s1 = protected_cycle(p, n=1001)
        t2, s2 = protected_cycle(p, n=2001)
        h = model.drive_interaction_hamiltonian(p)
        assert abs(dynamic_phase(s2, t2, h) - dynamic_phase(s1, t1, h)) < 1e-6


class TestPhaseRecord:
    def test_total_is_sum(self):
        p = cycle_params()
        times, states = protected_cycle(p, n=1001)
        rec = phase_record(states, times, model.drive_interaction_hamiltonian(p))
        assert rec.total == rec.geometric + rec.dynamic
        assert rec.cycle_time == pytest.approx(np.pi / p.omega1)

    def test_total_matches_generated_path_overlap(self):
        # evolve under the drive Hamiltonian itself and compare the endpoint
        # overlap phase with geometric + dynamic
        p = cycle_params()
        times = np.linspace(0.0, np.pi / p.omega1, 2001)
        h = model.drive_interaction_hamiltonian(p)
        psi0 = model.protected_state_nonadiabatic(p, 0.0)
        states = list(schroedinger_evolve(h, psi0, times).states)
        rec = phase_record(states, times, h)
        total_overlap = principal_phase(float(np.angle(np.vdot(states[0], states[-1]))))
        diff = abs(total_overlap - principal_phase(rec.total))
        diff = min(diff, 2.0 * np.pi - diff)
        assert diff < 1e-6

    def test_generated_path_follows_protected_ray(self):
        p = cycle_params()
        times = np.linspace(0.0, np.pi / p.omega1, 501)
        h = model.drive_interaction_hamiltonian(p)
        gen = schroedinger_evolve(h, model.protected_state_nonadiabatic(p, 0.0), times).states
        for i in range(0, len(times), 100):
            ray = model.protected_state_nonadiabatic(p, times[i])
            assert abs(abs(np.vdot(gen[i], ray)) - 1.0) < 1e-8


class TestBlochPath:
    def test_protected_path_stays_on_meridian(self):
        p = cycle_params()
        times, states = protected_cycle(p, n=257)
        path = export_bloch_path(states, times, (model.ket_e(), model.ket_g()))
        assert np.max(np.abs(path[:, 1])) < 1e-9  # x component

    def test_memory_path_stays_on_parallel(self):
        chi = 1.0
        lam = 100.0
        p = model.ModelParams(
            omega1=lam * np.sqrt(1 - chi**2 / 4),
            delta1=lam * chi,
            omega2=0.0,
            delta_a=-2 * lam,
        )
        times = np.linspace(0.0, 0.5, 101)
        states = [model.protected_state_memory(p, t) for t in times]
        path = export_bloch_path(states, times, (model.ket_e(), model.ket_g()))
        assert np.max(np.abs(path[:, 3] - chi / 2.0)) < 1e-9  # z = chi/2, constant

    def test_stationary_state_is_single_point(self):
        psi = model.plus_ket(0.0)
        times = np.linspace(0.0, 1.0, 11)
        path = export_bloch_path([psi] * 11, times, (model.ket_e(), model.ket_g()))
        assert np.max(np.std(path[:, 1:], axis=0)) < 1e-12
        assert path[0, 1:] == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
