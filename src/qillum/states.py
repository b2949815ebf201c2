"""Validated quantum states and the amplitude matrices of sweep probes.

This is where data enters the package, so this is where it is checked.
Density operators are checked on construction for shape, Hermiticity and
unit trace; positivity is checked where a matrix enters from outside, in
:func:`density_from_dict`, since every operator built inside the package is
positive by construction.  Bipartite pure states carry explicit signal and
idler dimensions.  A ``sweep`` probe is not built as a state: it is its
amplitude matrix, with its Schmidt coefficients on the diagonal
(:func:`schmidt_probe`).  Every check is phrased so that a NaN fails it
(``not defect <= tol``): any comparison with NaN is false, and JSON input
may hold ``NaN`` or ``Infinity``.
"""

from __future__ import annotations

import numpy as np

#: Default validation tolerance (max entry magnitude) used across the package.
DEFAULT_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class DensityMatrix:
    """A Hermitian, positive-semidefinite, unit-trace operator.

    Construction validates the square shape, Hermiticity (max entry
    magnitude) and the trace (absolute value) within ``tol``, all in
    O(dim^2).  Positivity is the caller's guarantee: it holds by
    construction for every operator the package builds, and
    :func:`density_from_dict` checks it for matrices read from outside.
    The stored matrix is read-only.
    """

    __slots__ = ("mat",)

    def __init__(self, mat: np.ndarray, tol: float = DEFAULT_TOL):
        a = np.asarray(mat, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        defect = float(np.max(np.abs(a - a.conj().T)))
        if not defect <= tol:
            raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > tol {tol:.3e}")
        tr = complex(np.trace(a))
        if not abs(tr - 1.0) <= tol:
            raise ValueError(f"trace is {tr:.6g}, expected 1 within {tol:.1e}")
        self.mat = _frozen(a)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class BipartiteState:
    """A normalized pure state on a ``d_s x d_i`` tensor-product space.

    Amplitudes are ordered signal-major: entry ``s * d_i + i`` is the
    coefficient of signal mode ``s`` paired with idler level ``i``.
    """

    __slots__ = ("d_s", "d_i", "amplitudes")

    def __init__(self, d_s: int, d_i: int, amplitudes: np.ndarray, tol: float = DEFAULT_TOL):
        if d_s < 2:
            raise ValueError(f"signal dimension must be >= 2, got {d_s}")
        if d_i < 1:
            raise ValueError(f"idler dimension must be >= 1, got {d_i}")
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amp.size != d_s * d_i:
            raise ValueError(f"expected {d_s * d_i} amplitudes, got {amp.size}")
        norm_sq = float(np.real(np.vdot(amp, amp)))
        if not abs(norm_sq - 1.0) <= tol:
            raise ValueError(f"amplitudes have squared norm {norm_sq:.6g}, expected 1")
        self.d_s = int(d_s)
        self.d_i = int(d_i)
        self.amplitudes = _frozen(amp)

    def density(self, tol: float = DEFAULT_TOL) -> DensityMatrix:
        """The state as a density matrix: the rank-one projector onto it,
        hence positive.  Dense, of dimension ``d_s * d_i``."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), tol)

    def __repr__(self) -> str:
        return f"BipartiteState(d_s={self.d_s}, d_i={self.d_i})"


def schmidt_probe(d_s: int, spectrum, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Amplitude matrix of the probe with reduced spectrum ``lam``.

    The probe is ``sum_m sqrt(lam_m) |m>|m>`` on ``d_s`` signal modes and
    ``len(spectrum)`` idler levels, so its idler reduction is
    ``diag(lam)``.  Returns the complex ``(d_s, len(spectrum))`` matrix
    (signal-major, as in :class:`BipartiteState`) with the Schmidt
    coefficients ``sqrt(lam)`` on its diagonal and zeros elsewhere,
    normalized to unit Frobenius norm.  The spectrum must have between 1
    and ``d_s`` entries, none below ``-1e-12``, and a positive sum within
    ``tol`` of 1.  Entries below zero count as 0.
    """
    spec = np.asarray(spectrum, dtype=float).reshape(-1)
    if spec.size < 1 or spec.size > d_s:
        raise ValueError(f"spectrum length {spec.size} not in [1, {d_s}]")
    if not np.all(spec >= -1e-12):
        raise ValueError("spectrum entries must be non-negative")
    total = float(spec.sum())
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"spectrum sums to {total!r}, expected 1 within {tol:.1e}")
    if not total > 0.0:
        raise ValueError(f"spectrum sums to {total!r}; a probe needs a positive sum")
    amplitudes = np.zeros((d_s, spec.size), dtype=complex)
    np.fill_diagonal(amplitudes, np.sqrt(np.clip(spec, 0.0, None)))
    amplitudes *= 1.0 / np.linalg.norm(amplitudes)
    return amplitudes


def haar_random_amplitudes(d_s: int, d_i: int, seeds) -> np.ndarray:
    """Amplitudes of uniformly random pure states, one per seed.

    Returns an ``(len(seeds), d_s, d_i)`` stack whose row ``k`` holds the
    amplitudes (signal-major, as in :class:`BipartiteState`) of the state
    drawn from ``seeds[k]``: independent standard complex Gaussians,
    normalized, which is the rotation-invariant distribution on the unit
    sphere.  The same seed always yields the same row.  The rows are not
    validated; a caller that does not wrap them in :class:`BipartiteState`
    checks their norms itself.
    """
    if d_s < 2 or d_i < 1:
        raise ValueError(f"invalid dimensions ({d_s}, {d_i})")
    n = d_s * d_i
    stack = np.empty((len(seeds), n), dtype=complex)
    for row, seed in zip(stack, seeds):
        rng = np.random.default_rng(int(seed))
        row.real = rng.standard_normal(n)
        row.imag = rng.standard_normal(n)
        row /= np.linalg.norm(row)
    return stack.reshape(-1, d_s, d_i)


# ---------------------------------------------------------------------------
# JSON wire format, shared with the command-line tool.
#
# Pure states:      {"d_s": n, "d_i": m, "amplitudes": [[re, im], ...]}
# Density matrices: {"dim": n, "entries": [[[re, im], ...], ...]}  (row-major)


def state_from_dict(obj: dict, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Decode a pure state from the JSON wire format."""
    try:
        d_s = int(obj["d_s"])
        d_i = int(obj["d_i"])
        pairs = obj["amplitudes"]
        amp = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed pure-state object: {exc}") from exc
    return BipartiteState(d_s, d_i, amp, tol)


def density_to_dict(mat: np.ndarray) -> dict:
    """Encode a square matrix (a density matrix's ``mat``, or a POVM
    element) in the JSON wire format."""
    return {
        "dim": mat.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in mat],
    }


def density_from_dict(obj: dict, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Decode a density matrix from the JSON wire format.

    Besides the Hermiticity and trace checks of :class:`DensityMatrix`, the
    matrix must be positive semidefinite: no eigenvalue below ``-tol``.
    """
    try:
        dim = int(obj["dim"])
        rows = obj["entries"]
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in rows], dtype=complex
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed density-matrix object: {exc}") from exc
    if mat.shape != (dim, dim):
        raise ValueError(f"entries shape {mat.shape} does not match dim {dim}")
    rho = DensityMatrix(mat, tol)
    w_min = np.linalg.eigvalsh(rho.mat)[0]
    if not w_min >= -tol:
        raise ValueError(f"not positive semidefinite: min eigenvalue {w_min:.3e}")
    return rho
