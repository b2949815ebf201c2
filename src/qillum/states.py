"""Validated quantum states, sweep probes' Schmidt weights and random pure
states.

This is where data enters the package, so this is where it is checked,
once.  A state read from a file, in either wire format, becomes a
read-only complex array (:func:`density_from_dict`): a pure state its
amplitude vector, whose squared norm is checked, and a stored density
matrix that matrix, after its shape, Hermiticity, trace and positivity
checks.  No projector is built here: :mod:`~qillum.discrimination` builds
one only where a pure state meets a stored one.
Positivity (no eigenvalue below ``-DEFAULT_TOL``) is certified by one
Cholesky factorization of ``rho + (DEFAULT_TOL - delta) I``, ``delta = 4
(n + 1) 2**-53 (1 + (n + 1) DEFAULT_TOL)`` in dimension ``n``, no full
eigensolve; only a matrix whose factorization fails is diagonalized, to
decide and to name its smallest eigenvalue.  A sweep
probe is its Schmidt weights (:func:`schmidt_probe`), built once per sweep
from a ``spectrum:`` file.  A random pure state is its complex ``(d_s,
d_i)`` amplitude matrix, entry ``[s, i]`` pairing signal mode ``s`` with
idler level ``i`` (:func:`haar_random_amplitudes`), drawn from
``PCG64(seed)``: the seeds' generator states are derived in one pass over
all of them, with numpy's ``SeedSequence`` hash and PCG64's seeding
written out on arrays (:func:`_pcg64_states`), and one generator draws
every sample.
Matrices leave the package as ``orjson``'s compact JSON, whose floats
read back exactly (:func:`densities_to_json`).
Every check is phrased so that a NaN fails it (``not defect <=
DEFAULT_TOL``): any comparison with NaN is false, and an object passed to
:func:`density_from_dict` may hold NaN or an infinity, as Python's ``json``
decodes from ``NaN``, ``Infinity`` or ``1e400``.  The command line's
reader rejects those already when it parses a file.
"""

from __future__ import annotations

import math
import reprlib
from itertools import chain

import numpy as np

#: The one validation tolerance (max entry magnitude) used across the package.
DEFAULT_TOL = 1e-9
#: How far below zero a ``spectrum:`` entry may lie, as rounding in the file
#: that wrote it; :func:`schmidt_probe` counts such an entry as 0.
SPECTRUM_FLOOR = 1e-12


def schmidt_probe(spectrum) -> np.ndarray:
    """Schmidt weights ``lam`` of the probe ``sum_m sqrt(lam_m) |m>|m>`` on
    ``len(spectrum)`` idler levels, whose idler reduction is ``diag(lam)``:
    a descending 1-D float array, the squared coefficients
    ``sqrt(spectrum)`` scaled to unit length by an exactly rounded sum
    (:func:`math.fsum`), so no sum over it depends on the order of the
    entries or on the BLAS build.  The spectrum must have no entry below
    ``-SPECTRUM_FLOOR`` (:data:`SPECTRUM_FLOOR`, 1e-12) and a sum within
    :data:`DEFAULT_TOL` of 1; entries between ``-SPECTRUM_FLOOR`` and 0 count
    as 0.  Its length is not checked: :mod:`qillum.cli` holds it to
    the smallest signal dimension of a sweep.
    """
    spec = np.asarray(spectrum, dtype=float).reshape(-1)
    if not np.all(spec >= -SPECTRUM_FLOOR):
        raise ValueError("spectrum entries must be non-negative")
    total = float(spec.sum())
    if not abs(total - 1.0) <= DEFAULT_TOL:
        raise ValueError(f"spectrum sums to {total!r}, expected 1 within {DEFAULT_TOL:.1e}")
    root = np.sqrt(np.clip(spec, 0.0, None))
    root *= 1.0 / math.sqrt(math.fsum(root * root))
    return np.sort(root * root)[::-1]


def haar_random_amplitudes(d_s: int, d_i: int, seeds) -> np.ndarray:
    """Amplitude matrices of uniformly random pure states, one per seed.

    Returns an ``(len(seeds), d_s, d_i)`` stack whose entry ``k`` is the
    amplitude matrix of the state drawn from ``seeds[k]``, a seed below
    ``2**32``: independent standard complex Gaussians, normalized, which is
    the rotation-invariant distribution on the unit sphere.  Neither the
    dimensions nor the matrices are checked; the caller checks what it
    relies on (``verify-bell`` checks that each one's Schmidt weights sum to
    1).

    A seed keeps its matrix: ``Generator(PCG64(seed))`` (named, not left to
    ``default_rng``'s default) draws ``2 d_s d_i`` normals, real parts then
    imaginary parts, and the row is divided by the root of two BLAS dots, of
    its real and imaginary parts, as ``np.linalg.norm`` takes it.  No
    generator is built per seed: every seed's ``PCG64`` state comes from one
    pass over the seeds (:func:`_pcg64_states`), and one generator, set to
    each state in turn, draws each row.  The norms and the division are one
    call each.
    """
    n = d_s * d_i
    normals = np.empty((len(seeds), 2 * n))
    bits = np.random.PCG64(0)
    generator = np.random.Generator(bits)
    for row, (state, inc) in zip(normals, _pcg64_states(np.asarray(seeds, dtype=np.uint32))):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=row)
    stack = np.empty((len(seeds), n), dtype=complex)
    stack.real, stack.imag = normals[:, :n], normals[:, n:]
    # vecdot is ddot on each row's strided parts; a pairwise sum (norm over an axis, einsum) moves last bits
    stack /= np.sqrt(np.vecdot(stack.real, stack.real) + np.vecdot(stack.imag, stack.imag))[:, None]
    return stack.reshape(-1, d_s, d_i)


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, in numpy/random/bit_generator.pyx) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """``SeedSequence``'s running hash of ``uint32`` words, from the
    constant ``const``: each call XORs the words with the constant, steps it
    to ``const * mult`` (mod ``2**32``), multiplies by it and folds the high
    half into the low one."""
    def hash_words(words: np.ndarray) -> np.ndarray:
        nonlocal const
        words = words ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        words = words * np.uint32(const)  # wraps mod 2**32, as the C code's uint32_t does
        return words ^ words >> 16
    return hash_words


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.PCG64(s)`` for each seed ``s`` of the
    ``uint32`` array ``seeds``, bit for bit.  It takes seeds below ``2**32``,
    the dtype of ``SeedSequence.generate_state``'s words and so of every
    seed ``verify-bell`` passes: each is one word of entropy, the only case
    written out here.

    ``SeedSequence(s)`` hashes the word into a pool of four (``mix_entropy``)
    and ``generate_state(4, uint64)`` hashes the pool into four 64-bit words;
    both run here as ``uint32`` arithmetic on whole arrays, each step once
    for all seeds.  PCG64 (M. E. O'Neill, "PCG: A Family of Simple Fast
    Space-Efficient Statistically Good Algorithms for Random Number
    Generation", HMC-CS-2014-0905, 2014) seeds itself from them as
    ``pcg64_srandom_r`` does: ``inc = 2 initseq + 1`` and ``state = ((inc +
    initstate) M + inc) mod 2**128``, with ``initstate`` the first two words
    and ``initseq`` the last two, in Python ints.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(seeds)] + [hashmix(np.zeros_like(seeds)) for _ in range(3)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> 16
    hash_words = _hasher(_INIT_B, _MULT_B)
    words = np.array([hash_words(pool[k % 4]) for k in range(8)], dtype=np.uint64)
    # each 64-bit word is two little-endian 32-bit ones; initstate is words 0 and 1, initseq 2 and 3
    mask = (1 << 128) - 1
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*(words[0::2] | words[1::2] << np.uint64(32)).tolist()):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & mask
        states.append((((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & mask, inc))
    return states


# ---------------------------------------------------------------------------
# JSON wire format, shared with the command-line tool.
#
# Pure states:      {"d_s": n, "d_i": m, "amplitudes": [[re, im], ...]}  (signal-major)
# Density matrices: {"dim": n, "entries": [[[re, im], ...], ...]}  (row-major)
# Dimensions are integral (2 or 2.0); every value is a JSON number.
# Both formats are read here; the package writes only density matrices, a
# list of them at a time, through densities_to_json.


def require_numbers(values: list) -> None:
    """Raise ``ValueError`` naming the first entry of ``values`` that is not
    a JSON number, an ``int`` or ``float`` as ``json`` decodes it: ``float()``
    and ``complex()`` would also take ``true``, and ``float()`` ``"2"``.
    One pass over the entries."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(x for x in values if type(x) not in (int, float))
        raise ValueError(f"{reprlib.repr(bad)} is not a number")  # repr recurses through a deep nest


def _dimension(obj: dict, key: str) -> int:
    """``obj[key]``, an integral JSON number."""
    value = obj[key]
    require_numbers([value])
    if int(value) != value:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _complex_pairs(rows: list) -> np.ndarray:
    """Rows of ``[[re, im], ...]`` pairs as one complex vector, row after
    row: the parts are flattened once, with no list of the pairs built."""
    if set(map(len, chain.from_iterable(rows))) - {2}:
        raise ValueError("expected [re, im] pairs")
    flat = list(chain.from_iterable(chain.from_iterable(rows)))
    require_numbers(flat)
    return np.array(flat, dtype=float).view(complex)


def densities_to_json(mats) -> str:
    """A list of square complex matrices of one dimension (a measurement's
    elements) as compact JSON in the density-matrix wire format: ``[re,
    im]`` pairs, row-major, as ``orjson`` writes them, each part in its
    shortest round-trip float text, so ``json.loads`` reads back every part
    bit for bit, signed zeros included.  orjson would write a NaN or an
    infinity as ``null``; none reaches here, since ``cli`` stops a
    measurement whose attained error is not finite before printing it.
    """
    import orjson  # here, not at module level: only helstrom --povm prints a measurement

    objs = [{"dim": len(m), "entries": np.stack((m.real, m.imag), -1)} for m in mats]
    return orjson.dumps(objs, option=orjson.OPT_SERIALIZE_NUMPY).decode()


def density_from_dict(obj: dict) -> np.ndarray:
    """Decode a state from either JSON wire format as a read-only complex
    array; ``amplitudes`` wins when both keys are present.

    A pure state becomes its amplitude vector ``psi`` (1-D, signal-major),
    of dimension ``d_s * d_i``; it stands for the density matrix
    ``|psi><psi|``, which is not built.  It needs ``d_s >= 2``, ``d_i >=
    1``, ``d_s * d_i`` amplitudes and a squared norm (the projector's
    trace) within :data:`DEFAULT_TOL` of 1.  A stored density matrix (2-D)
    must have the shape ``(dim, dim)``, be Hermitian (max entry magnitude)
    and have unit trace (absolute value) within :data:`DEFAULT_TOL`, and be
    positive semidefinite: no eigenvalue below ``-DEFAULT_TOL``.
    Positivity is certified by one Cholesky factorization of ``rho +
    (DEFAULT_TOL - delta) I``, where ``delta = 4 (n + 1) 2**-53 (1 + (n + 1)
    DEFAULT_TOL)`` bounds the factorization's rounding error in dimension
    ``n`` (:func:`_certified_psd` derives it).
    Only a matrix whose factorization fails is diagonalized (``eigvalsh``),
    to decide and to name its smallest eigenvalue.  Anything else raises
    ``ValueError``.
    """
    if isinstance(obj, dict) and "amplitudes" in obj:
        state = _pure_amplitudes(obj)
    elif isinstance(obj, dict) and "entries" in obj:
        state = _stored_density(obj)
    else:
        raise ValueError("neither a pure state nor a density matrix")
    state.setflags(write=False)
    return state


def _pure_amplitudes(obj: dict) -> np.ndarray:
    try:
        d_s = _dimension(obj, "d_s")
        d_i = _dimension(obj, "d_i")
        amp = _complex_pairs([obj["amplitudes"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed pure-state object: {exc}") from exc
    if d_s < 2:
        raise ValueError(f"signal dimension must be >= 2, got {d_s}")
    if d_i < 1:
        raise ValueError(f"idler dimension must be >= 1, got {d_i}")
    if amp.size != d_s * d_i:
        raise ValueError(f"expected {d_s * d_i} amplitudes, got {amp.size}")
    norm_sq = float(np.real(np.vdot(amp, amp)))
    if not abs(norm_sq - 1.0) <= DEFAULT_TOL:
        raise ValueError(f"amplitudes have squared norm {norm_sq:.17g}, expected 1")
    return amp


def _stored_density(obj: dict) -> np.ndarray:
    try:
        dim = _dimension(obj, "dim")
        rows = obj["entries"]
        widths = set(map(len, rows))
        if len(widths) > 1:
            raise ValueError("rows differ in length")
        mat = _complex_pairs(rows).reshape(len(rows), *widths)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed density-matrix object: {exc}") from exc
    if mat.shape != (dim, dim):  # so square, of dimension at least 1
        raise ValueError(f"entries shape {mat.shape} does not match dim {dim}")
    # entries near the largest float overflow both: an infinite defect, an infinite or NaN trace, each fails
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.max(np.abs(mat - mat.conj().T)))
        tr = complex(np.trace(mat))
    if not defect <= DEFAULT_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > tol {DEFAULT_TOL:.3e}")
    if not abs(tr - 1.0) <= DEFAULT_TOL:
        raise ValueError(f"trace is {tr:.17g}, expected 1 within {DEFAULT_TOL:.1e}")
    if _certified_psd(mat):
        return mat
    w_min = np.linalg.eigvalsh(mat)[0]
    if not w_min >= -DEFAULT_TOL:
        raise ValueError(f"not positive semidefinite: min eigenvalue {w_min:.3e}")
    return mat


def _certified_psd(mat: np.ndarray) -> bool:
    """Whether one Cholesky factorization proves that no eigenvalue of the
    Hermitian matrix in ``mat``'s lower triangle, the one ``eigvalsh``
    reads, lies below ``-DEFAULT_TOL``.  ``False`` proves nothing.

    With ``n = len(mat)`` and ``u = 2**-53`` it factors ``B = mat + c I``,
    ``c = DEFAULT_TOL - delta``, ``delta = 4 (n + 1) u (1 + (n + 1)
    DEFAULT_TOL)``: a copy of ``mat`` whose diagonal is raised, with no
    identity built and no norm taken.  If the factorization runs to
    completion, its computed factor ``R`` has ``R*R = B + dB`` with ``|dB|
    <= g |R*||R|`` entrywise (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Thm 10.3, for any order of summation, so for
    LAPACK's blocked code too).  Thm 10.3's ``gamma_{n+1}`` becomes ``g =
    sqrt(2) gamma_{2n+2} < 2.9 (n + 1) u`` once each complex product is
    counted as two real ones.  Since ``R*R`` is positive semidefinite,
    ``lambda_min(B) >= -||dB||_2 >= -g ||R||_F^2``, and ``||R||_F^2 =
    tr(R*R) <= tr(B) / (1 - g)``.  Every pivot was positive, so every
    diagonal entry of ``B`` is, and rounding the raised diagonal moved ``B``
    by at most ``u tr(B)``.  The trace check has held ``tr(mat)`` within
    ``DEFAULT_TOL`` of 1, so ``tr(B) <= 1 + (n + 1) DEFAULT_TOL`` up to a
    factor ``1 + O(n u)``.  Together ``lambda_min(mat) >= -c - (g + u) (1 +
    O(n u)) tr(B) >= -c - delta = -DEFAULT_TOL``: ``g + u < 3.4 (n + 1) u``,
    and ``4 / 3.4`` covers the factor at any ``n`` a matrix in memory has.
    """
    n = len(mat)
    raised = mat.copy()
    raised.flat[:: n + 1] += DEFAULT_TOL - 4 * (n + 1) * 2.0**-53 * (1 + (n + 1) * DEFAULT_TOL)
    try:
        np.linalg.cholesky(raised)
    except np.linalg.LinAlgError:
        return False
    return True
