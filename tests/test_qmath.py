import numpy as np
import pytest

from reslab import qmath
from reslab.errors import DimensionMismatchError


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestKron:
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_action(self):
        sigma_eg = np.outer(qmath.basis_ket(2, 0), qmath.basis_ket(2, 1))
        state = np.kron(qmath.basis_ket(2, 1), qmath.basis_ket(2, 0))  # |g> x |0>
        out = np.kron(sigma_eg, np.eye(2)) @ state
        assert np.allclose(out, np.kron(qmath.basis_ket(2, 0), qmath.basis_ket(2, 0)))

    def test_mixed_product(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            lhs = np.kron(a, b) @ np.kron(c, d)
            rhs = np.kron(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
            lhs = np.kron(np.kron(a, b), c)
            rhs = np.kron(a, np.kron(b, c))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestFock:
    def test_lowering_actions(self):
        a = qmath.fock_annihilation(1)
        assert np.allclose(a @ qmath.basis_ket(2, 1), qmath.basis_ket(2, 0))
        assert np.allclose(a @ qmath.basis_ket(2, 0), 0.0)

    def test_sqrt_two_element(self):
        a = qmath.fock_annihilation(2)
        assert a[1, 2] == pytest.approx(np.sqrt(2.0))

    def test_commutator_on_subspace(self):
        for n_max in (2, 3, 5):
            a = qmath.fock_annihilation(n_max)
            comm = a @ qmath.dag(a) - qmath.dag(a) @ a
            assert np.max(np.abs(comm[:n_max, :n_max] - np.eye(n_max))) < 1e-12

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            qmath.fock_annihilation(0)


class TestFidelity:
    def test_pure_state(self):
        psi = qmath.normalized([1.0, 1j])
        assert qmath.fidelity(qmath.projector(psi), psi) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert qmath.fidelity(np.eye(2) / 2, qmath.basis_ket(2, 0)) == pytest.approx(0.5)

    def test_protected_fixed_point_value(self):
        eps = 3.0 / 86.0
        rho = np.diag([1.0 - eps, eps])
        assert qmath.fidelity(rho, qmath.basis_ket(2, 0)) == pytest.approx(83.0 / 86.0, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qmath.fidelity(np.eye(2) / 2, qmath.basis_ket(3, 0))

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ValueError):
            qmath.fidelity(np.eye(2) / 2, [1.0, 1.0])

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            for _ in range(10):
                f = qmath.fidelity(random_density(rng, dim), random_ket(rng, dim))
                assert -1e-10 <= f <= 1.0 + 1e-10


class TestBloch:
    def test_excited_pole(self):
        basis = (qmath.basis_ket(2, 0), qmath.basis_ket(2, 1))
        assert qmath.bloch_vector(np.diag([1.0, 0.0]), basis) == pytest.approx((0.0, 0.0, 1.0))

    def test_equatorial(self):
        basis = (qmath.basis_ket(2, 0), qmath.basis_ket(2, 1))
        plus = qmath.normalized([1.0, 1.0])
        x, y, z = qmath.bloch_vector(qmath.projector(plus), basis)
        assert (x, y, z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            qmath.bloch_vector(np.eye(2) / 2, ([1.0, 0.0], [1.0, 1e-3]))

    def test_norm_and_purity(self):
        rng = np.random.default_rng(8)
        basis = (qmath.basis_ket(2, 0), qmath.basis_ket(2, 1))
        for _ in range(10):
            rho = random_density(rng, 2)
            x, y, z = qmath.bloch_vector(rho, basis)
            n2 = x * x + y * y + z * z
            assert n2 <= 1.0 + 1e-8
            pure = abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-8
            assert (abs(n2 - 1.0) < 1e-8) == pure
        for _ in range(5):
            rho = qmath.projector(random_ket(rng, 2))
            x, y, z = qmath.bloch_vector(rho, basis)
            assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-10)

    def test_stack_matches_single_states(self):
        rng = np.random.default_rng(10)
        b0 = random_ket(rng, 2)
        basis = (b0, np.array([-np.conj(b0[1]), np.conj(b0[0])]))
        rhos = np.array([random_density(rng, 2) for _ in range(7)])
        stacked = qmath.bloch_vector(rhos, basis)
        assert stacked.shape == (7, 3)
        singles = np.array([qmath.bloch_vector(rho, basis) for rho in rhos])
        assert np.max(np.abs(stacked - singles)) < 1e-15


def fidelity_of_one(rho, psi):
    # the single-matrix formulas the stacked helpers must reproduce bit for bit
    return float(complex(psi.conj() @ rho @ psi).real)


def trace_distance_of_one(a, b):
    d = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T)))))


def partial_trace_of_one(rho, dims, keep):
    t = rho.reshape(dims[0], dims[1], dims[0], dims[1])
    return np.trace(t, axis1=1, axis2=3) if keep == 0 else np.trace(t, axis1=0, axis2=2)


class TestStacks:
    """``fidelity``, ``trace_distance`` and ``partial_trace`` on ``(N, d, d)``
    stacks, in C order and in the per-matrix column order ``evolve`` returns."""

    @staticmethod
    def stack(rng, dim, n=9, column_order=False):
        rhos = np.array([random_density(rng, dim) for _ in range(n)])
        if column_order:  # each matrix in column order, as evolve returns them
            return np.ascontiguousarray(rhos.transpose(0, 2, 1)).transpose(0, 2, 1)
        return rhos

    @pytest.mark.parametrize("column_order", [False, True])
    def test_match_per_matrix_formulas(self, column_order):
        rng = np.random.default_rng(21)
        for dim in (2, 3):
            rhos, others = (self.stack(rng, dim, column_order=column_order) for _ in range(2))
            psi = random_ket(rng, dim)
            assert qmath.fidelity(rhos, psi).tolist() == [fidelity_of_one(r, psi) for r in rhos]
            assert qmath.trace_distance(rhos, others).tolist() == [
                trace_distance_of_one(a, b) for a, b in zip(rhos, others)
            ]
        joint = self.stack(rng, 6, column_order=column_order)
        for keep in (0, 1):
            stacked = qmath.partial_trace(joint, (2, 3), keep)
            singles = np.array([partial_trace_of_one(r, (2, 3), keep) for r in joint])
            assert stacked.shape == singles.shape and np.array_equal(stacked, singles)

    def test_single_matrix_gives_a_float(self):
        rng = np.random.default_rng(22)
        rho, other, psi = random_density(rng, 3), random_density(rng, 3), random_ket(rng, 3)
        assert type(qmath.fidelity(rho, psi)) is float
        assert qmath.fidelity(rho, psi) == fidelity_of_one(rho, psi)
        assert type(qmath.trace_distance(rho, other)) is float
        assert qmath.trace_distance(rho, other) == trace_distance_of_one(rho, other)

    def test_rejects_unnormalized_target(self):
        rhos = self.stack(np.random.default_rng(23), 2)
        with pytest.raises(ValueError, match="normalized"):
            qmath.fidelity(rhos, [1.0, 1.0])

    @pytest.mark.parametrize("index", [0, 4, 8])
    def test_rejects_an_imaginary_part_on_any_one_state(self, index):
        rhos = self.stack(np.random.default_rng(24), 2)
        psi = qmath.basis_ket(2, 0)
        assert np.all(np.isfinite(qmath.fidelity(rhos, psi)))
        rhos[index, 0, 0] += 1e-6j
        with pytest.raises(ValueError, match="imaginary part 1.000e-06"):
            qmath.fidelity(rhos, psi)

    def test_rejects_shape_mismatches(self):
        rng = np.random.default_rng(25)
        rhos = self.stack(rng, 3)
        with pytest.raises(DimensionMismatchError):
            qmath.fidelity(rhos, qmath.basis_ket(2, 0))
        with pytest.raises(DimensionMismatchError):
            qmath.fidelity(rhos[:, :, :2], qmath.basis_ket(3, 0))
        with pytest.raises(DimensionMismatchError):
            qmath.trace_distance(rhos, rhos[:-1])
        with pytest.raises(DimensionMismatchError):
            qmath.trace_distance(rhos, self.stack(rng, 2))
        with pytest.raises(DimensionMismatchError):
            qmath.trace_distance(rhos, rhos[0])
        with pytest.raises(DimensionMismatchError):
            qmath.partial_trace(rhos, (2, 2), 0)
        with pytest.raises(DimensionMismatchError):
            qmath.partial_trace(rhos[:, :, :2], (3, 1), 0)


class TestStateUtilities:
    def test_partial_trace(self):
        rng = np.random.default_rng(9)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = np.kron(rho_a, rho_b)
        assert np.max(np.abs(qmath.partial_trace(joint, (2, 3), 0) - rho_a)) < 1e-12
        assert np.max(np.abs(qmath.partial_trace(joint, (2, 3), 1) - rho_b)) < 1e-12

    def test_trace_distance(self):
        assert qmath.trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)
        assert qmath.trace_distance(np.eye(2) / 2, np.eye(2) / 2) == pytest.approx(0.0)

    def test_density_defects(self):
        d = qmath.density_matrix_defects(np.diag([0.7, 0.3]))
        assert d["trace_deviation"] < 1e-15
        assert d["hermiticity_defect"] == 0.0
        assert d["min_eigenvalue"] == pytest.approx(0.3)

        def valid(rho):
            d = qmath.density_matrix_defects(rho)
            return (
                d["trace_deviation"] <= 1e-9
                and d["hermiticity_defect"] <= 1e-10
                and d["min_eigenvalue"] >= -1e-8
            )

        assert valid(np.diag([0.7, 0.3]))
        assert not valid(np.diag([0.9, 0.3]))
