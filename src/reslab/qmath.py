"""Dense complex linear algebra and quantum-state primitives.

Everything in this package works on plain ``numpy`` arrays with dtype
``complex128``.  The systems simulated here never exceed a dimension of
about twelve (a few ionic levels times a few Fock levels), so all storage
is dense and all decompositions are direct.

Conventions
-----------
* Kets are one-dimensional arrays, operators are square two-dimensional
  arrays.
* Propagators are generated as ``exp(-i H t)`` with Hermitian ``H`` in
  rad/s and ``t`` in seconds.
* Numerical negativity of density matrices is reported by the diagnostic
  helpers, never clipped; clipping would mask integrator bugs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "as_operator",
    "as_ket",
    "dag",
    "kron",
    "projector",
    "normalized",
    "basis_ket",
    "fock_annihilation",
    "fidelity",
    "bloch_vector",
    "trace_distance",
    "partial_trace",
    "hermitian_defect",
    "density_matrix_defects",
]


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_ket(psi) -> np.ndarray:
    """Coerce to a one-dimensional complex state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size == 0:
        raise DimensionMismatchError("empty state vector")
    return v


def dag(a: np.ndarray) -> np.ndarray:
    """Hermitian adjoint; of each matrix of a stack."""
    return np.conj(a).swapaxes(-1, -2)


def kron(a, b) -> np.ndarray:
    """``np.kron`` of two matrices, or matrix by matrix of broadcast stacks: each
    entry the one product ``a_ij b_kl``, without ``np.kron``'s per-call set-up."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    *stack, m, p, n, q = out.shape
    return out.reshape(*stack, m * p, n * q)


def projector(psi) -> np.ndarray:
    """Rank-one projector ``|psi><psi|``."""
    v = as_ket(psi)
    return np.outer(v, v.conj())


def normalized(psi) -> np.ndarray:
    v = as_ket(psi)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def basis_ket(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise DimensionMismatchError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def hermitian_defect(a) -> float:
    """Largest absolute entry of ``A - A^dag``."""
    m = as_operator(a)
    return float(np.max(np.abs(m - dag(m)))) if m.size else 0.0


def fock_annihilation(n_max: int) -> np.ndarray:
    """Lowering operator on the truncated Fock space {|0>, ..., |n_max>}.

    Matrix elements ``<n-1|a|n> = sqrt(n)``; the returned operator has
    dimension ``n_max + 1``.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), k=1).astype(complex)


def fidelity(rho, psi):
    """Overlap ``<psi|rho|psi>`` between a state and a pure target; a stack of
    states ``(N, d, d)`` gives an ``(N,)`` array.

    ``psi`` must be normalized to 1e-10, and every overlap must be real to
    1e-10 relative to ``max(1, |Re|)``.
    A single state gives a float.
    """
    r = np.asarray(rho, dtype=complex)
    v = as_ket(psi)
    if r.ndim not in (2, 3) or r.shape[-2:] != (v.size, v.size):
        raise DimensionMismatchError(f"state dim {v.size} does not match operator shape {r.shape}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("target ket is not normalized")
    # (1, d) @ (d, 1) per state: a stacked (N, d) @ (d,) would round differently
    val = ((v.conj() @ r)[..., None, :] @ v[:, None])[..., 0, 0]
    bad = np.abs(val.imag) > 1e-10 * np.maximum(1.0, np.abs(val.real))
    if np.any(bad):
        imag = np.extract(bad, val.imag)[0]
        raise ValueError(f"fidelity has a non-negligible imaginary part {imag:.3e}")
    return float(val.real) if r.ndim == 2 else val.real


def bloch_vector(rho, basis) -> np.ndarray:
    """Bloch components ``(x, y, z)`` of a qubit state in an orthonormal basis
    pair; a stack of states ``(N, d, d)`` gives ``(N, 3)``.

    With ``rho_01 = <b0|rho|b1>`` the components are ``x = 2 Re rho_01``,
    ``y = -2 Im rho_01`` and ``z = rho_00 - rho_11``.  The basis kets are
    normalized here and must be orthogonal to 1e-8.
    """
    r = np.asarray(rho, dtype=complex)
    b0, b1 = (normalized(b) for b in basis)
    if r.ndim < 2 or r.shape[-2:] != (b0.size, b0.size) or b0.size != b1.size:
        raise DimensionMismatchError("basis kets do not match the operator dimension")
    if abs(np.vdot(b0, b1)) > 1e-8:
        raise ValueError("basis pair is not orthonormal")
    r01, r00, r11 = (
        np.einsum("i,...ij,j->...", a.conj(), r, b) for a, b in ((b0, b1), (b0, b0), (b1, b1))
    )
    return np.stack([2.0 * r01.real, -2.0 * r01.imag, (r00 - r11).real], axis=-1)


def trace_distance(a, b):
    """Trace distance ``0.5 * ||a - b||_1`` between two Hermitian matrices, or
    between two equal-shape stacks of them, matrix by matrix."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"operator shapes {a.shape} and {b.shape}")
    d = a - b
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (d + dag(d)))), axis=-1)
    return float(dist) if d.ndim == 2 else dist


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite system.

    Parameters
    ----------
    rho : array_like
        Density matrix on the product space ``dims[0] * dims[1]``, or a stack
        ``(N, d, d)`` of them.
    dims : (int, int)
        Subsystem dimensions, ordered as in the tensor product.
    keep : int
        Index (0 or 1) of the subsystem to keep.
    """
    r = np.asarray(rho, dtype=complex)
    d0, d1 = dims
    if r.ndim not in (2, 3) or r.shape[-2:] != (d0 * d1, d0 * d1):
        raise DimensionMismatchError(f"dims {dims} do not factor operator shape {r.shape}")
    t = r.reshape(*r.shape[:-2], d0, d1, d0, d1)
    if keep == 0:
        return np.trace(t, axis1=-3, axis2=-1)
    if keep == 1:
        return np.trace(t, axis1=-4, axis2=-2)
    raise ValueError("keep must be 0 or 1")


def density_matrix_defects(rho) -> dict[str, float]:
    """Diagnostics for a density matrix: trace deviation, Hermiticity defect,
    and the smallest eigenvalue (negativity is reported, not repaired)."""
    r = as_operator(rho)
    herm = hermitian_defect(r)
    sym = 0.5 * (r + dag(r))
    return {
        "trace_deviation": float(abs(np.trace(r) - 1.0)),
        "hermiticity_defect": herm,
        "min_eigenvalue": float(np.min(np.linalg.eigvalsh(sym))),
    }

