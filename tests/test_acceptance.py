"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import numpy as np
import pytest

from reslab import model, qmath
from reslab.frames import compare_effective, transformed_dissipator_average
from reslab.interferometer import run_interferometer
from reslab.lindblad import LindbladTerm, MasterEquation, evolve, steady_state
from reslab.phases import dynamic_phase, geometric_phase

TOL_CLOSED_FORM = 1e-12


def report(number: int, description: str, ok: bool):
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def regime_params(gamma_cavity=20.0):
    return model.ModelParams(
        g=1.0,
        omega1=400.0,
        omega2=20.0,
        phi1=0.0,
        phi2=0.0,
        delta1=0.0,
        delta2=-800.0,
        delta_a=-20.0,
        Gamma=gamma_cavity,
        gamma=0.0,
        n_max=2,
    )


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


def test_criterion_1_epsilon_formula_regression():
    eps = model.epsilon_closed_form(10.0, "nonadiabatic")
    ok = abs(eps - 3.0 / 86.0) <= TOL_CLOSED_FORM
    ok &= abs((1.0 - eps) - 83.0 / 86.0) <= TOL_CLOSED_FORM  # 0.96512...
    eps_m = model.epsilon_closed_form(100.0, "memory")
    ok &= abs(eps_m - 1.0 / 102.0) <= TOL_CLOSED_FORM
    ok &= abs((1.0 - eps_m) - 101.0 / 102.0) <= TOL_CLOSED_FORM  # 0.99020...
    report(1, "closed-form epsilon and fidelity regressions", bool(ok))


def test_criterion_2_derived_rate_regression():
    p = model.ModelParams(g=1e5, Gamma=1e6, gamma=1e2)
    rate = model.engineered_rate(p, "nonadiabatic")
    ok = rate == 1e4 and rate / p.gamma == 100.0
    report(2, "engineered rate 1e4 1/s and ratio 100 from the reference rates", ok)


def test_criterion_3_pure_fixed_point():
    p = regime_params()
    rho_ss, _ = steady_state(model.reduced_master_equation(p, "nonadiabatic"))
    dist = qmath.trace_distance(rho_ss, np.diag([1.0, 0.0]))

    rate = model.engineered_rate(p)
    me = model.full_system_master_equation(p, "nonadiabatic")
    rho0 = qmath.projector(np.kron(qmath.basis_ket(2, 1), qmath.basis_ket(3, 0)))
    traj = evolve(me, rho0, np.linspace(0.0, 10.0 / rate, 41))
    target = np.kron(qmath.basis_ket(2, 0), qmath.basis_ket(3, 0))
    fid = qmath.fidelity(traj.final, target)

    ok = dist <= 1e-9 and fid >= 0.999
    report(
        3,
        f"pure fixed point (distance {dist:.2e}) and two-part relaxation "
        f"(fidelity {fid:.6f} at rate*t=10)",
        ok,
    )


def _elimination_distance(cavity_decay: float) -> float:
    p = regime_params(gamma_cavity=cavity_decay)
    rate = model.engineered_rate(p)
    times = np.linspace(0.0, 5.0 / rate, 201)
    full = evolve(
        model.full_system_master_equation(p, "nonadiabatic"),
        qmath.projector(np.kron(qmath.basis_ket(2, 1), qmath.basis_ket(3, 0))),
        times,
    )
    reduced = evolve(
        model.reduced_master_equation(p, "nonadiabatic"), np.diag([0.0, 1.0 + 0j]), times
    )
    dists = np.array(
        [
            qmath.trace_distance(qmath.partial_trace(sf, (2, 3), 0), sr)
            for sf, sr in zip(full.states, reduced.states)
        ]
    )
    return float(np.max(dists[times >= 5.0 / p.Gamma]))


def test_criterion_4_adiabatic_elimination():
    d10, d20, d40 = (_elimination_distance(r) for r in (10.0, 20.0, 40.0))
    ok = d20 <= 0.05 and d40 <= 0.05 and d10 > d20 > d40
    report(
        4,
        "reduced-vs-full agreement after transient "
        f"(trace distances {d10:.4f} > {d20:.4f} > {d40:.4f}, bound 0.05 met at 20 and 40)",
        ok,
    )


def _nonadiabatic_comparison(p):
    psi0 = np.kron(model.up_ket(p.phi1, p.phi), qmath.basis_ket(p.n_max + 1, 0))
    return compare_effective(
        model.build_h1(p),
        model.build_h2(p, "nonadiabatic"),
        psi0,
        np.linspace(0.0, 2.0 / p.g, 101),
        frame=model.effective_check_frame(p, "nonadiabatic"),
    )


def _memory_comparison(chi):
    p = memory_params(chi)
    d = model.DerivedMemoryParams.from_params(p)
    psi0 = np.kron(model.tilde_minus_ket(d.chi, p.phi1), qmath.basis_ket(p.n_max + 1, 0))
    return compare_effective(
        model.build_h1_memory(p),
        model.build_h2(p, "memory"),
        psi0,
        np.linspace(0.0, 2.0 / p.g, 101),
        frame=model.effective_check_frame(p, "memory"),
    )


def test_criterion_5_effective_hamiltonian_oracle():
    worst = _nonadiabatic_comparison(regime_params()).worst_fidelity
    memory_worsts = {chi: _memory_comparison(chi).worst_fidelity for chi in (0.0, 1.0, -1.0)}
    ok = worst >= 0.99 and all(v >= 0.99 for v in memory_worsts.values())
    report(
        5,
        f"full-vs-effective fidelity floors (main {worst:.5f}; memory "
        + ", ".join(f"chi={c:+.0f}: {v:.5f}" for c, v in memory_worsts.items())
        + ")",
        ok,
    )


def test_criterion_6_phase_regression():
    p = model.ModelParams(
        g=0.1, omega1=1.0, omega2=0.05, phi1=0.0, phi2=0.0,
        delta1=0.0, delta2=-2.0, delta_a=-0.05, Gamma=2.0, gamma=0.0, n_max=1,
    )
    times = np.linspace(0.0, np.pi / p.omega1, 4097)
    states = model.protected_state_nonadiabatic(p, times)
    geo = geometric_phase(states)
    dyn = dynamic_phase(states, times, model.drive_interaction_hamiltonian(p))
    ok = abs(geo - (-np.pi)) <= 1e-3 and abs(dyn - (-np.pi * 0.05 / 2.0)) <= 1e-3
    report(6, f"geometric {geo:.6f} (target -pi) and dynamic {dyn:.6f} phases", ok)


def test_criterion_7_interferometer():
    p = model.ModelParams(
        g=0.1, omega1=1.0, omega2=0.05, phi1=0.0, phi2=0.0,
        delta1=0.0, delta2=-2.0, delta_a=-0.05, Gamma=2.0, gamma=0.0, n_max=1,
    )
    res = run_interferometer(p, np.linspace(0.0, 3.0 * np.pi / p.omega1, 801))
    slope_err = abs(res.phase_slope / res.expected_slope - 1.0)
    ok = slope_err <= 1e-3
    ok &= res.conservation_defect <= 1e-9
    ok &= res.reference_frequency == 2.0 * res.expected_slope
    ok &= abs(res.reference_frequency / res.phase_slope - 2.0) <= 2e-3
    report(
        7,
        f"phase slope error {slope_err:.2e}, conservation defect "
        f"{res.conservation_defect:.1e}, reference frequency = 2 x slope",
        bool(ok),
    )


def test_criterion_8_consistency_audit():
    # steady state of the closed rate equations at ratio 10
    p = model.ModelParams(g=np.sqrt(10.0), Gamma=1.0, gamma=1.0)
    me = model.reduced_master_equation(p, "nonadiabatic", include_gamma=True)
    rho, _ = steady_state(me)
    rate_eq_ok = abs(np.real(rho[0, 0]) - 10.375 / 11.5) <= 1e-9

    # averaging oracle: dressed spontaneous-emission coefficients
    gamma = 1.0
    pav = model.ModelParams(
        g=1.0, omega1=8.0, omega2=1.0, phi1=0.0, phi2=0.0,
        delta1=0.0, delta2=-16.0, delta_a=-1.0, Gamma=1e6, gamma=gamma, n_max=1,
    )
    dressed = model.dressed_decay_jump(pav, "nonadiabatic")
    frag = transformed_dissipator_average(LindbladTerm(rate=gamma, operator=dressed))
    oracle = {
        "pump": frag[0, 3].real,
        "damping": (frag[0, 3] - frag[0, 0]).real,
        "coherence_decay": -frag[2, 2].real,
        "cross_coupling": float(np.abs(frag[2, 1])),
    }
    rate_eq_set = {
        "pump": 3.0 * gamma / 8.0,
        "damping": 6.0 * gamma / 4.0,
        "coherence_decay": 5.0 * gamma / 4.0,
        "cross_coupling": gamma / 8.0,
    }
    agrees_with_rate_eqs = all(abs(oracle[k] - rate_eq_set[k]) <= 1e-9 for k in rate_eq_set)
    print("\n  averaging-oracle coefficients vs the closed rate-equation set (units of gamma):")
    for k in rate_eq_set:
        print(f"    {k:16s} oracle {oracle[k]/gamma:+.6f}  rate equations {rate_eq_set[k]/gamma:+.6f}")

    # the oracle's own fixed point versus the closed-form epsilon
    ratio = 10.0
    me_oracle = MasterEquation(
        dim=2,
        terms=(
            LindbladTerm(
                rate=ratio * gamma,
                operator=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
            ),
        ),
        extra_generator=frag,
    )
    eps_oracle = float(np.real(steady_state(me_oracle)[0][1, 1]))
    eps_formula = model.epsilon_closed_form(ratio, "nonadiabatic")
    agrees_with_formula = abs(eps_oracle - eps_formula) <= 1e-9
    print(
        f"  oracle epsilon {eps_oracle:.10f} vs closed form {eps_formula:.10f} "
        f"(the closed rate equations give {1.125 / 11.5:.10f})"
    )

    ok = rate_eq_ok and (agrees_with_formula or agrees_with_rate_eqs)
    report(
        8,
        "rate-equation steady state exact; averaging oracle agrees with the "
        f"closed-form epsilon ({agrees_with_formula}) "
        f"and with the rate-equation coefficients ({agrees_with_rate_eqs})",
        ok,
    )


def test_criterion_9_invariant_suite():
    worst_trace = 0.0
    worst_herm = 0.0
    worst_eig = 0.0

    def track(states):
        nonlocal worst_trace, worst_herm, worst_eig
        for s in states:
            d = qmath.density_matrix_defects(s)
            worst_trace = max(worst_trace, d["trace_deviation"])
            worst_herm = max(worst_herm, d["hermiticity_defect"])
            worst_eig = min(worst_eig, d["min_eigenvalue"])

    # reduced model with spontaneous emission at the reference ratio
    p_red = model.ModelParams(g=np.sqrt(10.0), Gamma=1.0, gamma=1.0)
    me = model.reduced_master_equation(p_red, "nonadiabatic", include_gamma=True)
    track(evolve(me, np.diag([0.0, 1.0 + 0j]), np.linspace(0.0, 5.0, 101)).states)

    # reduced memory branch
    track(
        evolve(
            model.reduced_master_equation(memory_params(1.0), "memory"),
            np.diag([0.0, 1.0 + 0j]),
            np.linspace(0.0, 3.0 / model.engineered_rate(memory_params(1.0), "memory"), 51),
        ).states
    )

    # full two-part model
    p_full = regime_params()
    track(
        evolve(
            model.full_system_master_equation(p_full, "nonadiabatic"),
            qmath.projector(np.kron(qmath.basis_ket(2, 1), qmath.basis_ket(3, 0))),
            np.linspace(0.0, 3.0 / model.engineered_rate(p_full), 61),
        ).states
    )

    # interferometer with the decay channel on (time-dependent jump)
    p_int = model.ModelParams(
        g=0.1, omega1=1.0, omega2=0.05, phi1=0.0, phi2=0.0,
        delta1=0.0, delta2=-2.0, delta_a=-0.05, Gamma=2.0,
        gamma=model.engineered_rate(model.ModelParams(g=0.1, Gamma=2.0)) / 100.0, n_max=1,
    )
    res = run_interferometer(p_int, np.linspace(0.0, np.pi, 101), include_tl_decay=True)
    track(res.trajectory.states)

    bounds_ok = worst_trace <= 1e-9 and worst_herm <= 1e-9 and worst_eig >= -1e-7

    # gauge invariance of the geometric phase under random per-sample phases
    p = model.ModelParams(
        g=0.1, omega1=1.0, omega2=0.05, phi1=0.3, phi2=-0.2,
        delta1=0.0, delta2=-2.0, delta_a=-0.05, Gamma=2.0, gamma=0.0, n_max=1,
    )
    times = np.linspace(0.0, np.pi, 1001)
    states = [model.protected_state_nonadiabatic(p, t) for t in times]
    rng = np.random.default_rng(42)
    reference = geometric_phase(states)
    gauge_dev = max(
        abs(
            geometric_phase([s * np.exp(1j * rng.uniform(0, 2 * np.pi)) for s in states])
            - reference
        )
        for _ in range(3)
    )
    ok = bounds_ok and gauge_dev <= 1e-9
    report(
        9,
        f"trajectory invariants (trace {worst_trace:.1e}, hermiticity {worst_herm:.1e}, "
        f"min eigenvalue {worst_eig:.1e}) and gauge invariance ({gauge_dev:.1e})",
        ok,
    )
