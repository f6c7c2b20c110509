"""Cross-module audits of the dressed-frame reduction, beyond the
acceptance criteria: what the superoperator-averaging oracle says about
the memory branch, where no closed rate-equation system is available."""

import numpy as np
import pytest

from reslab import model
from reslab.lindblad import LindbladTerm, MasterEquation, steady_state


def memory_params(chi, lam=16.0, gamma=1.0):
    return model.ModelParams(
        g=1.0,
        omega1=float(np.sqrt(lam**2 - (chi * lam) ** 2 / 4.0)),
        omega2=0.0,
        phi1=0.3,
        phi2=0.0,
        delta1=chi * lam,
        delta2=0.0,
        delta_a=-2.0 * lam,
        Gamma=1e6,
        gamma=gamma,
        n_max=1,
    )


def averaged_memory_decay(p):
    term = LindbladTerm(rate=p.gamma, operator=model.dressed_decay_jump(p, "memory"))
    return term.superoperator().mean


class TestMemoryBranchOracle:
    @pytest.mark.parametrize("chi", [0.0, 1.0, -1.0])
    def test_averaged_fixed_point_is_diagonal(self, chi, capsys):
        gamma = 1.0
        ratio = 100.0
        p = memory_params(chi, gamma=gamma)
        frag = averaged_memory_decay(p)
        jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        me = MasterEquation(
            dim=2,
            terms=(LindbladTerm(rate=ratio * gamma, operator=jump),),
            extra_generator=frag,
        )
        rho, _ = steady_state(me)
        eps_oracle = float(np.real(rho[1, 1]))
        eps_formula = model.epsilon_closed_form(ratio, "memory")
        # the averaged generator has no cross-frequency interference terms,
        # so its fixed point carries no coherence between the dressed states;
        # the stated asymptotic off-diagonal eps/(1-eps) is not reproduced
        assert abs(rho[0, 1]) < 1e-9
        assert 0.0 < eps_oracle < 0.5
        with capsys.disabled():
            print(
                f"\n  memory oracle (chi={chi:+.0f}): eps {eps_oracle:.6f}"
                f" vs closed form {eps_formula:.6f};"
                f" off-diagonal {abs(rho[0, 1]):.1e}"
                f" vs stated {eps_formula / (1 - eps_formula):.6f}"
            )

    def test_pump_rates_scale_with_chi(self):
        # pump into the protected state goes as (2 - chi)^2, damping as (2 + chi)^2
        gamma = 1.0
        for chi in (0.0, 1.0, -1.0):
            frag = averaged_memory_decay(memory_params(chi, gamma=gamma))
            pump = frag[0, 3].real
            damp = (frag[0, 3] - frag[0, 0]).real - pump
            assert pump == pytest.approx(gamma * (2.0 - chi) ** 2 / 16.0, abs=1e-9)
            assert damp == pytest.approx(gamma * (2.0 + chi) ** 2 / 16.0, abs=1e-9)
