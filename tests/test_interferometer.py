import numpy as np
import pytest

from reslab import model
from reslab.interferometer import population_inversion_reference, run_interferometer


def interferometer_params(gamma=0.0):
    omega1 = 1.0
    return model.ModelParams(
        g=0.1,
        omega1=omega1,
        omega2=0.05,
        phi1=0.0,
        phi2=0.0,
        delta1=0.0,
        delta2=-2.0 * omega1,
        delta_a=-0.05,
        Gamma=2.0,
        gamma=gamma,
        n_max=1,
    )


def three_half_cycles(p, n_samples):
    """The interferometer scenario's default grid: 3 pi / omega1 in ``n_samples``."""
    return np.linspace(0.0, 3.0 * np.pi / p.omega1, n_samples)


class TestReferenceSignal:
    def test_initial_value(self):
        assert population_inversion_reference(1.0, 0.05, 0.0) == pytest.approx(0.5)

    def test_full_cycles_for_weak_second_drive(self):
        omega1, omega2 = 1.0, 1e-4
        for n in (1, 2, 3):
            t = n * np.pi / omega1
            assert population_inversion_reference(omega1, omega2, t) == pytest.approx(
                0.5, abs=1e-3
            )

    def test_constant_without_drives(self):
        ts = np.linspace(0.0, 5.0, 11)
        assert np.allclose(population_inversion_reference(0.0, 0.0, ts), 0.5)


class TestRunInterferometer:
    def test_extracted_phase_slope(self):
        p = interferometer_params()
        res = run_interferometer(p, three_half_cycles(p, 801))
        assert res.expected_slope == pytest.approx(1.025)
        assert abs(res.phase_slope / res.expected_slope - 1.0) < 1e-3

    def test_reference_population_invariance(self):
        p = interferometer_params()
        res = run_interferometer(p, three_half_cycles(p, 401))
        assert np.max(np.abs(res.rho_aa - 0.5)) < 1e-9

    def test_coherence_magnitude_constant(self):
        p = interferometer_params()
        res = run_interferometer(p, three_half_cycles(p, 401))
        assert np.max(np.abs(np.abs(res.coherence) - 0.5)) < 1e-9

    def test_probability_conservation(self):
        p = interferometer_params()
        res = run_interferometer(p, three_half_cycles(p, 401))
        assert res.conservation_defect < 1e-9

    def test_factor_two_between_reference_and_slope(self):
        p = interferometer_params()
        res = run_interferometer(p, three_half_cycles(p, 201))
        assert res.reference_frequency == 2.0 * res.expected_slope
        assert res.reference_frequency / res.phase_slope == pytest.approx(2.0, rel=1e-3)

    def test_coherence_matches_closed_form(self):
        p = interferometer_params()
        res = run_interferometer(p, three_half_cycles(p, 401))
        expected = 0.5 * np.exp(-1j * (p.omega1 + 0.5 * p.omega2) * res.times)
        assert np.max(np.abs(res.coherence - expected)) < 1e-6

    def test_decay_contribution_is_small_over_one_cycle(self):
        # engineered-to-spontaneous ratio 100, as for the reference rates
        p = interferometer_params(gamma=model.engineered_rate(p=interferometer_params()) / 100.0)
        res = run_interferometer(
            p, np.linspace(0.0, np.pi / p.omega1, 201), include_tl_decay=True
        )
        assert 0.0 <= res.coherence_decay_fraction < 0.05
        assert res.conservation_defect < 1e-9

    def test_auxiliary_level_is_dark(self):
        p = interferometer_params(gamma=0.01)
        res = run_interferometer(p, three_half_cycles(p, 201), include_tl_decay=True)
        # population can flow between up and down but never into |a>
        assert np.max(np.abs(res.rho_aa - res.rho_aa[0])) < 1e-9
