"""Gaussian radial kernel and dense least-squares machinery.

The kernel is parameterized as ``phi(r) = exp(-(eps * r)**2)`` with shape
parameter ``eps > 0``: small eps gives a flat, near-global kernel and large
eps a narrow spike.  (Beware that some libraries use the inverse convention
``exp(-(r / eps)**2)``; shape-parameter sweeps are meaningless if the two
are mixed.)  Matrices are plain row-major ``numpy.ndarray``; no sparse or
structured storage.

phi is floored: where ``(eps * r)**2`` exceeds FLOOR_ARG it is exactly
``+0.0``, so every nonzero kernel value is a normal double of at least about
``2**-511``, and so is the product of any two.  Without the floor the
narrow shapes of a sweep (eps 5-30 on the study cells) fill the matrices
with subnormal numbers, which x86 CPUs handle on a slow path.  value_block
clamps the argument at FLOOR_ARG, takes exp and multiplies by the 0/1
mask: bitwise the plain ``exp(-arg)`` below the floor, with no masked write
and no ``exp(-inf)``, which numpy's SIMD exp takes on a special-value path.
Every route (the sweep, evaluation, the per-axis factors) goes through
value_block, so the floor gives the same bits everywhere.

The geometry has one form on every route: _radii sums the squared
coordinate differences in coordinate order, and gradient_block writes the
differences straight into the gradient rows it returns.  No (N, d, M)
difference array is built.

solve_normal is the truncated-SVD solve of a normal system
``(G, a^T b)`` from the eigenpairs of ``G = a^T a``, cut off at REL_TOL,
which also keeps the flat, ill-conditioned shapes from winning on
directions the data barely determine (Hansen, *BIT* 27, 1987).  It is
every sweep's exact solve: on grid data the normal system is formed from
per-axis factors, and off it normal_system forms it from the assembled
design matrix.  solve_least_squares is the same solve of ``a @ x = b``; no
sweep calls it.  SweepSolver screens the candidates of one sweep by rank
certificates, with solve_normal's eigensolve as its fallback; its
docstring sets out the routes.

The Gaussian factors over coordinates: phi(w - c) = prod_k
exp(-(eps * (w_k - c_k))**2).  On a tensor grid of points the value rows
of a design matrix are therefore a column-wise Khatri-Rao product of one
block per axis (axis_factors), and G is a Hadamard product of the blocks'
small Gram matrices, so a sweep on grid data forms its normal systems,
and a surrogate its values on a grid, without an N x M matrix (Fasshauer,
*Meshfree Approximation Methods with MATLAB*, 2007; Saatci, PhD thesis,
Cambridge, 2011).  The factors and their Gram blocks held no subnormal
number on the seed-0 b3 c100 study cells, but G did: an entry of G
multiplies two Gram entries, each as small as about exp(-2 FLOOR_ARG), and
510 (mode f) and 586 (fg, g) entries underflowed, all at candidates 65-74.
They are left as they are: the solves of those candidates timed no faster
without them.  _radii, normal_system and assemble_value_matrix serve only
points that are not a grid.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """A solve overflowed or failed numerically; the caller may skip and move on."""


@dataclass(frozen=True)
class KernelParams:
    """Shape parameter for the Gaussian kernel; must be positive and finite."""

    shape: float

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ValueError(f"shape must be positive and finite, got {self.shape}")


# exp(-354) ~ 2**-510.7, so the product of two nonzero kernel values is at
# least 2**-1021.4, above the smallest normal double 2**-1022
FLOOR_ARG = 354.0


def value_block(r: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """phi = exp(-(eps*r)**2) elementwise over radii r >= 0, written into out.

    phi is +0.0 wherever (eps*r)**2 > FLOOR_ARG, so exp never produces a
    subnormal.  out has r's shape and may be r itself.  The ufuncs run in
    place, so a shape sweep rewrites one buffer per candidate and allocates
    only the boolean floor mask.
    """
    np.multiply(r, eps, out=out)
    np.square(out, out=out)
    # entries past the floor become exp(-FLOOR_ARG) * 0.0 = +0.0 and the
    # others x * 1.0 = x: the bits of a masked exp, without its slow paths
    keep = out <= FLOOR_ARG
    np.negative(out, out=out)
    np.maximum(out, -FLOOR_ARG, out=out)
    np.exp(out, out=out)
    return np.multiply(out, keep, out=out)


def gradient_block(points, centres, phi: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """(N*d) x M gradient rows of points (N, d) against centres (M, d), written into out.

    phi is value_block of the points' radii at eps.  Entry
    -2 eps^2 (x_i - c_j)_k phi_ij goes to row d*i + k, column j.  out is a
    C-contiguous (N*d, M) buffer, viewed as (N, d, M): the differences are
    written straight into it and scaled in place, so no other array of that
    size is built.
    """
    if not out.flags.c_contiguous:
        # reshape would copy, and the rows would be written to the copy
        raise ValueError("out must be C-contiguous")
    g = out.reshape(points.shape[0], points.shape[1], centres.shape[0])
    np.subtract(points[:, :, None], centres.T[None, :, :], out=g)
    np.multiply(g, -2.0 * eps**2, out=g)
    np.multiply(g, phi[:, None, :], out=g)
    return out


def _checked(points, centres) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    centres = np.asarray(centres, dtype=np.float64)
    if points.ndim != 2 or centres.ndim != 2:
        raise ValueError("points and centres must be 2-d arrays")
    if points.shape[1] != centres.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {points.shape[1]}-d, "
            f"centres are {centres.shape[1]}-d"
        )
    return points, centres


def _radii(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """N x M distances, with squared coordinate differences summed in coordinate order.

    Each coordinate's differences come from np.subtract.outer into one
    scratch buffer, so no (N, d, M) array is built.
    """
    r = np.subtract.outer(points[:, 0], centres[:, 0])
    np.square(r, out=r)
    t = None
    for k in range(1, points.shape[1]):
        t = np.subtract.outer(points[:, k], centres[:, k], out=t)
        r += np.square(t, out=t)
    return np.sqrt(r, out=r)


def assemble_value_matrix(points, centres, params: KernelParams) -> np.ndarray:
    """N x M matrix with entry (i, j) = phi(||points[i] - centres[j]||).

    The radii are accumulated in the returned buffer and value_block runs
    on it in place; besides the result, only one N x M scratch buffer of
    coordinate differences is allocated (for d >= 2).
    """
    r = _radii(*_checked(points, centres))
    return value_block(r, params.shape, r)


def assemble_gradient_matrix(points, centres, params: KernelParams) -> np.ndarray:
    """(N*d) x M matrix of kernel spatial gradients.

    Rows are point-major, coordinate-minor: rows d*i .. d*i+d-1 hold the d
    gradient components of every kernel column at points[i].
    """
    points, centres = _checked(points, centres)
    r = _radii(points, centres)
    phi = value_block(r, params.shape, r)
    out = np.empty((points.size, centres.shape[0]))
    return gradient_block(points, centres, phi, params.shape, out)


def axis_factors(d: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, D) of one coordinate axis, from the differences d = node - centre.

    E = exp(-(eps*d)**2) is value_block's floored kernel of d, and D =
    -2 eps^2 d E.  In 2-d, phi(w - c) is E_1 E_2 and its partial derivatives
    are D_1 E_2 and E_1 D_2, up to rounding.  Each factor is floored on its
    own at FLOOR_ARG, so a nonzero E is normal and so is a product of two
    (a Hadamard product of Gram entries is not: see the module docstring);
    a product E_1 E_2 may be nonzero where value_block floors phi of the
    whole radius, but it is then below exp(-FLOOR_ARG), up to rounding.
    """
    e = value_block(d, eps, np.empty(np.broadcast_shapes(d.shape, np.shape(eps))))
    dd = np.multiply(d, -2.0 * eps**2)
    dd *= e
    return e, dd


REL_TOL = 1e-12  # on eigenvalues of a^T a; sqrt(REL_TOL) = 1e-6 on singular values of a


# the solve helpers below run under np.errstate(over="ignore",
# invalid="ignore"), held by their callers: they check for overflow
# themselves


def normal_system(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(G, a^T b) with G = a^T a, after the input and overflow checks of solve_least_squares.

    Runs under the errstate of the solve helpers below.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-d")
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix rows {a.shape[0]}")
    g, atb = a.T @ a, a.T @ b
    # non-finite a_ij makes G_jj non-finite, and non-finite b_i every (a^T b)_j
    if not (np.isfinite(np.diagonal(g)).all() and np.isfinite(atb).all()):
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("matrix and rhs must be finite")
        raise NumericalError("normal matrix overflowed")
    return g, atb


def solve_least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated-SVD least squares of a @ x = b: solve_normal of normal_system(a, b).

    The eigenpairs (lam, V) of G = a^T a are a's squared singular values and
    right singular vectors.  x = V_k diag(1/lam_k) V_k^T a^T b over the k
    with lam > REL_TOL * lam_max (sigma > 1e-6 * sigma_max), a cutoff above
    G's rounding of about N * u * lam_max (under 2e-13 * lam_max for N <=
    1875 rows).  Non-finite input raises ValueError; overflow, a failed
    eigensolve or a non-finite x raise NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return solve_normal(*normal_system(a, b))


# the block route's columns beyond the previous candidate's rank
_MARGIN = 12
# the certificates: an eigenvalue proven above _KEEP times the cutoff is
# kept by eigh, one proven below _DROP times the cutoff is dropped.  The
# factors leave room for the rounding of eigh and of the factorizations,
# about M * u * lam_max, 1e-14 * lam_max against a cutoff of 1e-12 * lam_max
# (at most 1e-3 of the cutoff on the seed-0 study cells)
_KEEP = 1.1
_DROP = 0.9


def _full_rank_solve(g, atb):
    """(x, M, None, "full") if G is certified to keep all M eigenvalues; else LinAlgError.

    tau = REL_TOL * ||G||_F is at least REL_TOL * lam_max.  If
    G - _KEEP * tau * I factors, lam_min > _KEEP * tau, so eigh keeps every
    eigenvalue and the truncated solve is the plain solve of G x = a^T b.
    """
    tau = REL_TOL * float(np.linalg.norm(g))
    shifted = g.copy()
    shifted.reshape(-1)[:: g.shape[0] + 1] -= _KEEP * tau
    # raises LinAlgError unless the shifted matrix is positive definite
    np.linalg.cholesky(shifted)
    return np.linalg.solve(g, atb), g.shape[0], None, "full"


def _block_solve(g, atb, basis):
    """(x, k, Ritz vectors, "block") if a block step certifies eigh's k, else None.

    One product by G of the starting basis and a QR give Q; the Ritz pairs
    (theta, U) of G on Q come from eigh(Q^T G Q), and the cutoff is
    REL_TOL * theta_max.  The result is accepted only if the k kept theta
    are at least _KEEP times the cutoff and the residual
    R = G - U_k Theta_k U_k^T has ||R||_F < _DROP * cutoff.  By Cauchy
    interlacing lam_i >= theta_i, and by Weyl's inequality lam_{k+1} and
    lam_max - theta_max are at most ||R||_2 <= ||R||_F: eigh keeps exactly
    these k, also when every theta of the block is kept.  (Parlett, *The
    Symmetric Eigenvalue Problem*, SIAM, 1998.)  x = U_k Theta_k^-1 U_k^T
    a^T b is then the least-squares solution over span(U_k), close to, but
    not bitwise, eigh's.  The Ritz vectors are returned in descending order
    of theta.
    """
    q = np.linalg.qr(g @ basis)[0]
    theta, w = np.linalg.eigh(q.T @ (g @ q))
    cutoff = REL_TOL * theta[-1]
    # k >= 1 whenever the cutoff is positive and finite
    k = int(np.count_nonzero(theta > cutoff))
    if not (0 < cutoff < np.inf and theta[-k] >= _KEEP * cutoff):
        return None
    u = q @ w[:, ::-1]
    uk, theta_k = u[:, :k], theta[: -k - 1 : -1]
    if not np.linalg.norm(g - (uk * theta_k) @ uk.T) < _DROP * cutoff:
        return None
    return uk @ ((uk.T @ atb) / theta_k), k, u, "block"


class SweepSolver:
    """The solves of one shape sweep, screened by rank certificates.

    Along a sweep the cutoff keeps either few eigenvalues of G = a^T a (the
    flat limit's polynomial ranks 1, 3, 10, ...; Driscoll & Fornberg,
    *Comput. Math. Appl.* 43, 2002) or all of them, and the
    rank never fell from one candidate to the next in the measured study
    cells.  So each solve carries the previous candidate's kept count k and
    its leading eigen- or Ritz vectors (rank and basis), and takes the
    first route that applies:

    1. full rank: the previous candidate kept all M eigenvalues, and a
       shifted Cholesky factorization proves this one does too
       (_full_rank_solve);
    2. block: k + _MARGIN <= M // 2, and a Rayleigh-Ritz step on the
       previous candidate's leading k + _MARGIN vectors (Halko, Martinsson
       & Tropp, *SIAM Rev.* 53, 2011) certifies eigh's kept count by the
       norm of its residual (_block_solve).  After a block step whose rank
       rose, the block holds fewer than k + _MARGIN Ritz vectors, and all
       are used;
    3. otherwise the truncated eigh solve of G (see solve_least_squares).

    Route 3 is solve_normal, the exact solve.  Routes 1 and 2 keep exactly
    the eigenvalues eigh keeps, but their x, and so the candidate's MSE, is
    not bitwise eigh's: the MSE differs in about the 14th digit on route 1
    and by up to about 1e-3 relative on route 2.  So a sweep re-solves the
    candidates of those routes that may win with solve_normal.  Below
    2 * (_MARGIN + 1) columns route 2 cannot apply.  A route that is
    refused, fails or gives a non-finite x falls back to route 3.  One
    instance serves one sweep; it is not thread-safe.
    """

    def __init__(self):
        self.rank = 0
        self.basis = None

    def solve(self, g, atb) -> tuple[np.ndarray, int, str]:
        """(x, kept eigenvalue count, route name: "full", "block" or "eigh") of G x = a^T b.

        G is symmetric positive semidefinite up to rounding.  A non-finite
        G diagonal or a^T b raises NumericalError, as an overflow in
        normal_system does.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if not (np.isfinite(np.diagonal(g)).all() and np.isfinite(atb).all()):
                raise NumericalError("normal matrix overflowed")
            m = g.shape[0]
            solved = None
            if self.rank == m or self.basis is not None:
                try:
                    if self.rank == m:
                        solved = _full_rank_solve(g, atb)
                    else:
                        solved = _block_solve(g, atb, self.basis)
                except np.linalg.LinAlgError:
                    pass
                if solved is not None and not np.isfinite(solved[0]).all():
                    solved = None
            if solved is None:
                try:
                    lam, v = np.linalg.eigh(g)
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(f"eigensolve failed: {exc}") from exc
                keep = lam > REL_TOL * lam.max(initial=0.0)
                vk = v[:, keep]
                x = vk @ ((vk.T @ atb) / lam[keep])
                if not np.isfinite(x).all():
                    raise NumericalError("least-squares solution is not finite")
                solved = (x, int(np.count_nonzero(keep)), v[:, ::-1], "eigh")
        x, self.rank, vectors, route = solved
        width = self.rank + _MARGIN
        fits = vectors is not None and width <= m // 2
        self.basis = vectors[:, :width] if fits else None
        return x, self.rank, route


def solve_normal(g: np.ndarray, atb: np.ndarray) -> np.ndarray:
    """The truncated eigen-solve of a normal system G x = a^T b, cut off as solve_least_squares's.

    G is symmetric positive semidefinite up to rounding.  A fresh
    SweepSolver has no rank or basis to certify from, so it takes its eigh
    route.  A non-finite G diagonal or a^T b, a failed eigensolve or a
    non-finite x raise NumericalError.  Every sweep takes it as the exact
    solve.
    """
    return SweepSolver().solve(g, atb)[0]


@functools.cache
def _bundled_openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in (n for n in names if "openblas" in n):
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


class _OneThreadPin:
    """Holders of the process-wide one-thread BLAS setting.

    The thread count is global to the process, so overlapping holders
    (nested calls, runs on several threads) share one pin: the first sets
    one thread and the last restores the count it found.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = 0

    def acquire(self, get, set_):
        with self._lock:
            if self._holders == 0:
                self._saved = get()
                set_(1)
            self._holders += 1

    def release(self, set_):
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                set_(self._saved)


_PIN = _OneThreadPin()


@contextmanager
def single_threaded_blas():
    """Run the block with numpy's bundled OpenBLAS on one thread.

    A threaded BLAS splits dot products and matrix-vector products into
    per-thread partial sums, so the rounding of a result depends on the
    thread count; one thread makes it depend on the build alone.  The
    previous count is restored when the last overlapping block exits.
    Without a bundled OpenBLAS (numpy linked against another BLAS) this
    does nothing.
    """
    funcs = _bundled_openblas_threads()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    _PIN.acquire(get, set_)
    try:
        yield
    finally:
        _PIN.release(set_)
