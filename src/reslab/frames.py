"""Rotating frames and the Schroedinger integrator used to validate
dressed-frame reductions.

A frame is a unitary family ``F(t)``; states map as ``psi -> F(t) psi``
and operators as ``O -> F O F^dag``.  :func:`rotation` builds the frame
``R(t) = exp(-i G_1 t) exp(-i G_2 t) ...`` of static Hermitian generators,
and :func:`to_frame` sees an operator or a Hamiltonian from inside any
frame, ``F(t)^dag O(t) F(t)``.  Both are finite Fourier sums, built
exactly as :class:`~reslab.lindblad.Harmonic` operators, which evaluate on
a whole time grid at once.

The full Hamiltonians the effective ones are checked against are harmonic
sums with commensurate frequencies, so they repeat with a period ``T``
(:attr:`~reslab.lindblad.Harmonic.period`).  :func:`schroedinger_evolve`
integrates the propagator over one period only and advances whole periods
by powers of the one-period map ``U(T)`` (Floquet theory; Grifoni &
Haenggi, Phys. Rep. 304, 229 (1998)).  Its steps are the eighth-order,
unitary 4-stage Gauss-Legendre collocation maps, halved by the driver
that :func:`~reslab.lindblad.evolve` shares (``lindblad._refine``) until
the Richardson estimate of the error meets the tolerance, and it returns the
record that ``evolve`` returns, a :class:`~reslab.lindblad.Trajectory`.
"""

from __future__ import annotations

import numpy as np

from . import qmath
from .lindblad import Harmonic, Trajectory, _as_harmonic, _block_rows, _check_operator
from .lindblad import _refine, _span_states, _step_layout, _time_grid

__all__ = [
    "rotation",
    "to_frame",
    "compare_effective",
    "schroedinger_evolve",
]

def rotation(generators) -> Harmonic:
    """The frame ``R(t) = exp(-i G_1 t) exp(-i G_2 t) ...`` of static Hermitian
    generators, outermost first, as a harmonic sum built from their
    eigendecompositions: each factor is ``sum_a exp(-i w_a t) P_a`` over its
    eigenprojectors."""
    gens = [qmath.as_operator(g) for g in generators]
    d = gens[0].shape[0]
    r = Harmonic([0.0], [np.eye(d)])
    for w, v in (np.linalg.eigh(0.5 * (g + qmath.dag(g))) for g in gens):
        projectors = np.einsum("ia,ja->aij", v, v.conj())
        products = np.einsum("kij,ajl->kail", r.matrices, projectors)
        r = Harmonic(np.add.outer(r.frequencies, w).ravel(), products.reshape(-1, d, d))
    return r


def to_frame(frame: Harmonic, o, *, hamiltonian: bool = False) -> Harmonic:
    """``F^dag O F``: a static or harmonic ``O`` seen from inside the unitary
    frame ``F``, exactly.  With ``F(t) = sum_l exp(-i nu_l t) A_l`` and
    ``O(t) = sum_m exp(-i mu_m t) B_m`` it is ``sum_kml exp(-i (mu_m + nu_l -
    nu_k) t) A_k^dag B_m A_l``.  ``hamiltonian`` adds the frame's own term
    ``-i F^dag dF/dt``, a ``B_m A_l`` of ``-nu_l A_l`` at ``mu = 0``, so that
    ``F^dag psi`` evolves under the result when ``i dpsi/dt = O psi``."""
    nu, a, o = frame.frequencies, frame.matrices, _as_harmonic(o)
    mu, right = np.add.outer(o.frequencies, nu), o.matrices[:, None] @ a  # B_m A_l
    if hamiltonian:
        mu, right = np.vstack([mu, nu]), np.concatenate([right, -nu[:, None, None] * a[None]])
    nus = np.add.outer(-nu, mu)
    products = np.einsum("kji,mljn->kmlin", a.conj(), right)
    return Harmonic(nus.ravel(), products.reshape(nus.size, *a.shape[1:]))


def _gauss_legendre(stages: int):
    """Butcher tableau ``(a, b, c)`` of the ``stages``-stage Gauss-Legendre
    collocation method, of order ``2 stages``: ``c`` and ``b`` are the Gauss
    nodes and weights on ``[0, 1]``, and ``a`` solves the collocation
    conditions ``sum_j a_ij c_j^k = c_i^(k+1) / (k+1)`` for ``k < stages``."""
    x, w = np.polynomial.legendre.leggauss(stages)
    c, b = 0.5 * (x + 1.0), 0.5 * w
    k = np.arange(stages)[:, None]
    return np.linalg.solve(c**k, c ** (k + 1) / (k + 1)).T, b, c


#: the 4-stage Gauss-Legendre tableau of :func:`schroedinger_evolve`'s steps
_GL_A, _GL_B, _GL_C = _gauss_legendre(4)

#: the order of those steps, ``2 stages``, which sets the Richardson estimate
_GL_ORDER = 2 * _GL_C.size

#: first step count: ``_STEP_SCALE`` steps per radian that the fastest harmonic
#: plus the summed component norms can turn the state through.  Of 0.3 to 1.0,
#: 0.75 took the least time over the test suite's reference cases, each of
#: them accepted at the first doubling; smaller values need a third pass
_STEP_SCALE = 0.75


def _prefix_products(x: np.ndarray) -> None:
    """Turn a stack of matrices ``x[0], ..., x[k-1]`` into its prefix products
    ``x[i] ... x[0]``, in place, in about ``2 log2 k`` batched products (Brent &
    Kung, IEEE Trans. Comput. C-31, 260 (1982)).  The up-sweep leaves at each
    ``x[p]`` with ``p + 1`` a multiple of ``2g`` the product of the ``2g``
    matrices ending there, for ``g = 1, 2, 4, ...``; the down-sweep completes
    each other ``x[p]`` from the prefix ``g`` places before it.  That is about
    ``2 k`` matrix products, against ``k`` taken one at a time."""
    k, g = len(x), 1
    while 2 * g <= k:
        x[2 * g - 1 :: 2 * g] = x[2 * g - 1 :: 2 * g] @ x[g - 1 : k - g : 2 * g]
        g *= 2
    while g > 1:
        g //= 2
        x[3 * g - 1 :: 2 * g] = x[3 * g - 1 :: 2 * g] @ x[2 * g - 1 : k - g : 2 * g]


def _propagators(h: Harmonic, points, substeps, u) -> np.ndarray:
    """``U(p) u`` at each point ``p``, ``points[0] = 0``, for a ket or a block
    of columns ``u`` carried from 0 (the identity gives the propagators ``U``),
    the interval before point ``i + 1`` taken in ``substeps[i]`` equal steps.  A
    step over ``[t, t + w]`` multiplies by ``I + w sum_i b_i K_i``, whose stage
    slopes ``K_i = M_i (I + w sum_j a_ij K_j)``, ``M_i = -i H(t + c_i w) =
    sum_k p_ik (-i A_k)`` with the phases ``p_ik = exp(-i nu_k (t + c_i w))``,
    solve one linear system.  Its block row ``i``, the blocks ``-w a_ij M_i``
    over ``j``, is one product of the weighted phases ``w p_ik`` with the stack
    ``-a_ij (-i A_k)`` formed once per pass.  Blocks of steps reuse buffers
    allocated once (``lindblad._BLOCK_BYTES``).  Each block's step maps become
    their products from the block's start (:func:`_prefix_products`); those
    at the block's interval ends take the operand there in one batched
    product, and the operand advances once per block."""
    starts, widths, last = _step_layout(points, substeps)
    n, s, d = widths.size, _GL_C.size, h.matrices.shape[-1]
    rows = _block_rows(16 * d * d * (s + s * s + 1), n)
    generator = -1j * h.matrices.reshape(-1, d * d)  # the -i A_k, flattened
    stack = np.multiply.outer(-_GL_A, generator.reshape(-1, d, d)).transpose(0, 2, 3, 1, 4)
    stack = stack.reshape(s, -1, d * s * d)  # (i, k, (a, j, b)): -a_ij (-i A_k)_ab
    edges = [*range(0, n, rows), n]
    closing = np.searchsorted(last, edges).tolist()  # the intervals ending in each block
    # one allocation: glibc trims its heap past twice the largest block freed, so
    # a pass's frees then stay mapped and the next pass faults no pages in
    shapes = [(rows, s, d, d), (rows, s * d, s * d), (rows, d, d)]
    ends = np.cumsum([np.prod(x) for x in shapes])
    m, system, maps = map(np.reshape, np.split(np.empty(ends[-1], complex), ends[:-1]), shapes)
    props = np.empty((points.size, *u.shape), dtype=complex)
    props[0] = u
    for j, a, z in zip(edges, closing, closing[1:]):
        t, w = starts[j : j + rows], widths[j : j + rows]
        k = t.size
        mk, sk, out = m[:k], system[:k], maps[:k]
        phases = np.exp(-1j * np.multiply.outer(t[:, None] + w[:, None] * _GL_C, h.frequencies))
        np.matmul(phases.reshape(k * s, -1), generator, out=mk.reshape(k * s, d * d))
        # block (i, j) of each stage system is -w a_ij M_i, plus 1 on the diagonal
        stage_rows = sk.reshape(k, s, d * s * d).transpose(1, 0, 2)
        np.matmul((w[:, None, None] * phases).transpose(1, 0, 2), stack, out=stage_rows)
        sk.reshape(k, -1)[:, :: s * d + 1] += 1.0
        slopes = np.linalg.solve(sk, mk.reshape(k, s * d, d))
        np.matmul(_GL_B, slopes.reshape(k, s, d * d), out=out.reshape(k, d * d))
        out *= w[:, None, None]
        out.reshape(k, -1)[:, :: d + 1] += 1.0
        _prefix_products(out)
        np.matmul(out[last[a:z] - j], u, out=props[a + 1 : z + 1])
        u = out[-1] @ u
    return props


def schroedinger_evolve(
    hamiltonian,
    psi0,
    times,
    *,
    tol: float = 1e-10,
) -> Trajectory:
    """Integrate ``i dpsi/dt = H(t) psi`` on the grid ``times``, which must
    start at 0 and increase strictly; ``psi0`` is the state at 0.  Returns a
    :class:`~reslab.lindblad.Trajectory` whose ``states`` are the kets, shape
    ``(len(times), dim)``, with the record :func:`~reslab.lindblad.evolve` keeps.

    ``hamiltonian`` is a static matrix or a :class:`Harmonic`.  The
    integration covers one span ``S``: ``H``'s period when that is shorter
    than the grid, else the whole grid, through which the ket itself is
    carried.  With a whole period the propagator ``U`` from 0 is carried
    instead, and each state is ``psi(t) = U(t mod S) U(S)^n psi0`` with
    ``n = floor(t / S)`` (``lindblad._span_states``, which ``evolve`` shares).

    The steps are 4-stage Gauss-Legendre collocation (order 8, unitary for
    Hermitian ``H``; Hairer, Lubich & Wanner, Geometric Numerical
    Integration, 2nd ed. (2006), II.1 and IV.2), and the carried operand is
    kept at the points ``t mod S``.  The interval ``dt`` between two of them
    starts at ``max(1, ceil(_STEP_SCALE dt (max|nu_k| + sum_k ||A_k||_2)))``
    equal steps; :func:`lindblad._refine` doubles every count until the Richardson
    estimate ``max |psi_fine - psi_coarse| / (2^8 - 1)`` over the states is
    at most ``tol``.  The record's ``achieved`` is that estimate, not a bound
    on the error, and it can understate a long integration's error: over 12
    periods at about 3e5 steps per span it reported 6.8e-13 where the error
    was 1.4e-11.

    Raises
    ------
    IntegrationDivergenceError
        If ``lindblad._MAX_REFINEMENTS`` doublings do not reach ``tol``
        (carrying the last estimate), or if a count of whole spans or of
        first steps is too large to be an integer.
    """
    _check_operator(hamiltonian, "hamiltonian")
    h = _as_harmonic(hamiltonian)
    times = _time_grid(times)
    psi0 = qmath.as_ket(psi0)
    rate = np.max(np.abs(h.frequencies)) + np.sum(np.linalg.norm(h.matrices, 2, axis=(1, 2)))

    def run(split, counts):  # split: what lindblad._split returns for times
        whole, points, where = split
        return _span_states(lambda u: _propagators(h, points, counts, u), whole, where, psi0)

    def richardson(fine, coarse):
        return float(np.max(np.abs(fine - coarse))) / (2**_GL_ORDER - 1)

    return _refine(h, times, _STEP_SCALE * rate, run, richardson, tol, "gauss-legendre-4")


def compare_effective(full, effective, psi0, times, *, frame) -> tuple[Trajectory, np.ndarray]:
    """Evolve ``psi0`` under a full (possibly time-dependent) Hamiltonian and
    under a static effective one and record ``|<psi_full|psi_eff>|^2`` on the
    grid ``times``, which must start at 0 and increase strictly.  Returns the
    full model's :func:`schroedinger_evolve` trajectory and the fidelity at
    each of its times.

    ``psi0`` is given in full-frame coordinates.  ``frame`` is the unitary
    ``R(t)`` (a :class:`Harmonic` or a static matrix) that maps
    effective-frame states back into the full frame, so the effective side
    starts from ``R(0)^dag psi0`` and is compared as
    ``psi_eff(t) = R(t) exp(-i H_eff t) R(0)^dag psi0``.
    """
    _check_operator(frame, "frame")
    psi0 = qmath.normalized(psi0)
    traj = schroedinger_evolve(full, psi0, times)
    times = traj.times

    h_eff = qmath.as_operator(effective)
    w, v = np.linalg.eigh(0.5 * (h_eff + qmath.dag(h_eff)))
    rs = _as_harmonic(frame)(times)
    coeff = qmath.dag(v) @ (qmath.dag(rs[0]) @ psi0)
    eff_states = (np.exp(-1j * np.multiply.outer(times, w)) * coeff) @ v.T
    eff_states = np.einsum("nij,nj->ni", rs, eff_states)
    fids = np.abs(np.einsum("ni,ni->n", traj.states.conj(), eff_states)) ** 2
    return traj, fids
