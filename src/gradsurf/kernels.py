"""Gaussian radial kernel and dense least-squares machinery.

The kernel is parameterized as ``phi(r) = exp(-(eps * r)**2)`` with shape
parameter ``eps > 0``: small eps gives a flat, near-global kernel and large
eps a narrow spike.  (Beware that some libraries use the inverse convention
``exp(-(r / eps)**2)``; shape-parameter sweeps are meaningless if the two
are mixed.)  Matrices are plain row-major ``numpy.ndarray``; no sparse or
structured storage.
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
    """A solve produced non-finite output; the caller may skip and move on."""


@dataclass(frozen=True)
class KernelParams:
    """Shape parameter for the Gaussian kernel; must be positive and finite."""

    shape: float

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ValueError(f"shape must be positive and finite, got {self.shape}")


def value_block(r: np.ndarray, eps: float) -> np.ndarray:
    """phi = exp(-(eps*r)**2) elementwise over precomputed radii r >= 0."""
    return np.exp(-((eps * r) ** 2))


def gradient_block(diff: np.ndarray, phi: np.ndarray, eps: float) -> np.ndarray:
    """(N*d) x M gradient rows from differences (N, d, M) and phi = value_block(r, eps).

    Entry -2 eps^2 (x_i - c_j)_k phi_ij goes to row d*i + k, column j.
    """
    n, d, m = diff.shape
    return (-2.0 * eps**2 * diff * phi[:, None, :]).reshape(n * d, m)


def pairwise(points, centres) -> tuple[np.ndarray, np.ndarray]:
    """The eps-independent geometry of points (N, d) against centres (M, d).

    Returns the differences points[i] - centres[j] laid out (N, d, M), as
    gradient_block wants them, and the radii (N, M).  A shape sweep computes
    this once and evaluates only value_block/gradient_block per candidate.
    """
    points = np.asarray(points, dtype=np.float64)
    centres = np.asarray(centres, dtype=np.float64)
    if points.ndim != 2 or centres.ndim != 2:
        raise ValueError("points and centres must be 2-d arrays")
    if points.shape[1] != centres.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {points.shape[1]}-d, "
            f"centres are {centres.shape[1]}-d"
        )
    diff = points[:, :, None] - centres.T[None, :, :]  # (N, d, M)
    # accumulated in place, in the order sum() takes, so no (N, d, M)
    # temporary of squares is held next to diff
    r = diff[:, 0] ** 2
    for k in range(1, diff.shape[1]):
        r += diff[:, k] ** 2
    return diff, np.sqrt(r, out=r)


def assemble_value_matrix(points, centres, params: KernelParams) -> np.ndarray:
    """N x M matrix with entry (i, j) = phi(||points[i] - centres[j]||)."""
    r = pairwise(points, centres)[1]  # the differences are freed here
    return value_block(r, params.shape)


def assemble_gradient_matrix(points, centres, params: KernelParams) -> np.ndarray:
    """(N*d) x M matrix of kernel spatial gradients.

    Rows are point-major, coordinate-minor: rows d*i .. d*i+d-1 hold the d
    gradient components of every kernel column at points[i].
    """
    diff, r = pairwise(points, centres)
    return gradient_block(diff, value_block(r, params.shape), params.shape)


def solve_least_squares(a: np.ndarray, b: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Minimum-norm least-squares solution of a @ x = b.

    Rank-revealing SVD solve; singular values below rel_tol times the
    largest are treated as zero.  Non-finite inputs are rejected up front;
    a non-finite solution raises NumericalError so sweeps can skip the
    offending candidate.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-d")
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix rows {a.shape[0]}")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise ValueError("matrix and rhs must be finite")
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=rel_tol)
    if not np.all(np.isfinite(x)):
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
