"""Gaussian radial kernel and dense least-squares machinery.

The kernel is parameterized as ``phi(r) = exp(-(eps * r)**2)`` with shape
parameter ``eps > 0``: small eps gives a flat, near-global kernel and large
eps a narrow spike.  (Beware that some libraries use the inverse convention
``exp(-(r / eps)**2)``; shape-parameter sweeps are meaningless if the two
are mixed.)  Matrices are plain row-major ``numpy.ndarray``; no sparse or
structured storage.

phi is floored: where ``(eps * r)**2`` exceeds FLOOR_ARG it is exactly
``+0.0``, so every nonzero kernel value is a normal double of at least about
``2**-511``, and so is the product of any two (the entries of ``a^T a``).
Without the floor the narrow shapes of a sweep fill the matrices with
subnormal numbers, which x86 CPUs handle on a slow path.  Every route (the
sweep, the training MSE, evaluation) goes through value_block, so the floor
gives the same matrix bits everywhere.
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

    phi is +0.0 wherever (eps*r)**2 > FLOOR_ARG: the argument is masked to
    inf before exp, so exp never produces a subnormal.  out has r's shape
    and may be r itself.  The ufuncs run in place, so a shape sweep
    rewrites one buffer per candidate instead of allocating.
    """
    np.multiply(r, eps, out=out)
    np.square(out, out=out)
    np.copyto(out, np.inf, where=out > FLOOR_ARG)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def gradient_block(diff: np.ndarray, phi: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """(N*d) x M gradient rows from differences (N, d, M) and phi = value_block(r, eps, ...).

    Entry -2 eps^2 (x_i - c_j)_k phi_ij goes to row d*i + k, column j.  out
    is a C-contiguous (N*d, M) buffer, and may be diff itself.
    """
    if not out.flags.c_contiguous:
        # reshape would copy, and the rows would be written to the copy
        raise ValueError("out must be C-contiguous")
    g = out.reshape(diff.shape)
    np.multiply(diff, -2.0 * eps**2, out=g)
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


def pairwise(points, centres) -> tuple[np.ndarray, np.ndarray]:
    """The eps-independent geometry of points (N, d) against centres (M, d).

    Returns the differences points[i] - centres[j] as a C-contiguous
    (N, d, M) array, as gradient_block wants them, and the radii (N, M).  A
    shape sweep computes this once and evaluates only value_block/
    gradient_block per candidate.
    """
    points, centres = _checked(points, centres)
    # without order="C" numpy lays the result out like its broadcast inputs
    diff = np.subtract(points[:, :, None], centres.T[None, :, :], order="C")
    return diff, _radii(points, centres)


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
    diff, r = pairwise(points, centres)
    n, d, m = diff.shape
    # both blocks run in place on the geometry, which is not needed after
    phi = value_block(r, params.shape, r)
    return gradient_block(diff, phi, params.shape, diff.reshape(n * d, m))


REL_TOL = 1e-12  # on eigenvalues of a^T a; sqrt(REL_TOL) = 1e-6 on singular values of a


def solve_least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated-SVD least-squares solution of a @ x = b, via the normal matrix.

    The eigenpairs (lam, V) of G = a^T a are a's squared singular values and
    right singular vectors.  x = V_k diag(1/lam_k) V_k^T a^T b over the k
    with lam > REL_TOL * lam_max (sigma > 1e-6 * sigma_max), a cutoff above
    G's rounding of about N * u * lam_max (under 2e-13 * lam_max for N <=
    1875 rows).  Non-finite input raises ValueError; overflow, a failed
    eigensolve or a non-finite x raise NumericalError, so sweeps can skip
    the candidate.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-d")
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix rows {a.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        g, atb = a.T @ a, a.T @ b
        # non-finite a_ij makes G_jj non-finite, and non-finite b_i every (a^T b)_j
        if not (np.isfinite(np.diagonal(g)).all() and np.isfinite(atb).all()):
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ValueError("matrix and rhs must be finite")
            raise NumericalError("normal matrix overflowed")
        try:
            lam, v = np.linalg.eigh(g)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolve failed: {exc}") from exc
        keep = lam > REL_TOL * lam.max(initial=0.0)
        v = v[:, keep]
        x = v @ ((v.T @ atb) / lam[keep])
    if not np.isfinite(x).all():
        raise NumericalError("least-squares solution is not finite")
    return x


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
