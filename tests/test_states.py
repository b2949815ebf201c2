"""Tests for state construction and validation, Schmidt weights, the wire
format, and the amplitude-matrix builders and reduction oracle of
``conftest``."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qillum.discrimination import diagonalize
from qillum.states import (
    DEFAULT_TOL,
    SPECTRUM_FLOOR,
    _pcg64_states,
    densities_to_json,
    density_from_dict,
    haar_random_amplitudes,
    schmidt_probe,
)
from conftest import (
    AWKWARD_PARTS,
    assert_reads_back,
    bell_state,
    density_to_dict,
    effective_rank_k,
    haar_amplitudes_oracle,
    haar_random_state,
    idler_reduction,
    max_abs_diff,
    partial_trace,
    projector,
    pure_state_dict,
    purity,
    random_density,
    random_projective_povm,
    random_unitary,
    schmidt_amplitudes,
)

@st.composite
def matrix_lists(draw):
    """Lists of 1 to 3 complex matrices of one dimension, for the encoder.

    Three sources: parts drawn from the finite :data:`AWKWARD_PARTS` and
    all finite floats, so magnitudes repeat across signs and matrices; a
    measurement ``(E, I - E)`` with ``E`` a symmetrized projector, whose
    magnitudes repeat as the CLI's do; one matrix in which no magnitude
    repeats.
    """
    dim = draw(st.integers(1, 4))
    source = draw(st.sampled_from(["parts", "measurement", "distinct"]))
    if source == "measurement":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_projective_povm(rng, dim + 1)
    size = 2 * dim * dim
    if source == "parts":
        count = draw(st.integers(1, 3))
        finite = [x for x in AWKWARD_PARTS if math.isfinite(x)]
        part = st.one_of(st.sampled_from(finite), st.floats(allow_nan=False, allow_infinity=False))
        values = draw(st.lists(part, min_size=count * size, max_size=count * size))
    else:
        count = 1
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = draw(st.lists(finite, min_size=size, max_size=size, unique_by=abs))
    return list(np.array(values).view(complex).reshape(count, dim, dim))


#: Magnitudes where a float's text changes layout, in orjson or in
#: ``json``: two-digit exponents below 1e-9, fixed notation from 1e-5
#: (orjson) or 1e-4 (``repr``), exponents again from 1e16.
CUTS = np.array([1e-9, 1e-5, 1e-4, 1e16])
#: A part in each range the cuts bound, and each cut itself; some negative.
RANGE_PARTS = [3e-10, -1e-9, 2.5e-7, -1e-5, 3e-5, 1e-4, -0.5, 1e16]
#: Signed zero, both ends of the float range, the least normal, and the last
#: float below three cuts.
EDGE_PARTS = [-0.0, 2.2250738585072014e-308, -1.7976931348623157e308, 1.7976931348623157e308, -5e-324,
              -9.999999999999999e-10, 9.999999999999999e-06, -9999999999999998.0]
#: Bit patterns of finite floats: an exponent field of all ones is an infinity or a NaN.
FINITE_WORDS = st.integers(0, 2**64 - 1).filter(lambda w: (w >> 52) & 0x7FF != 0x7FF)


def assert_round_trip(mats):
    """``json.loads`` of the encoder's text gives back ``mats`` bit for bit."""
    assert_reads_back(json.loads(densities_to_json(mats)), mats)


def assert_magnitudes_round_trip(mag):
    """Each magnitude and its negation, as the two parts of a 1-dimensional
    matrix, read back bit for bit."""
    assert_round_trip(list(np.stack((mag, -mag), -1).view(complex).reshape(-1, 1, 1)))


class TestStoredDensity:
    """The decoder on the density-matrix format: shape, Hermiticity, trace,
    then positivity."""

    def test_accepts_valid(self):
        rho = density_from_dict(density_to_dict(np.diag([0.25, 0.75])))
        assert rho.shape == (2, 2) and rho.dtype == complex
        assert purity(rho) == pytest.approx(0.625)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            density_from_dict(density_to_dict(np.array([[0.5, 0.5], [0.0, 0.5]])))
        with pytest.raises(ValueError, match="Hermitian"):
            density_from_dict(density_to_dict(np.array([[0.5, 2e-9], [0.0, 0.5]])))
        density_from_dict(density_to_dict(np.array([[0.5, 5e-10], [0.0, 0.5]])))  # within DEFAULT_TOL

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="does not match dim|malformed"):
            density_from_dict(density_to_dict(np.zeros(shape)))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            density_from_dict(density_to_dict(np.diag([0.5, 0.6])))
        with pytest.raises(ValueError, match=r"trace is 1\.000000002\d*\+0j, expected 1"):
            density_from_dict(density_to_dict(np.diag([0.5, 0.5 + 2e-9])))
        density_from_dict(density_to_dict(np.diag([0.5, 0.5 + 5e-10])))

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.integers(2, 96).flatmap(lambda dim: st.tuples(st.just(dim), st.integers(1, dim - 1))),
        smallest=st.sampled_from([-1.001e-9, -0.999e-9, 0.0, 1e-12]),
    )
    @example(seed=0, dims=(2, 1), smallest=-1.001e-9)
    @example(seed=1, dims=(96, 1), smallest=-1.001e-9)
    @example(seed=2, dims=(96, 95), smallest=-0.999e-9)
    @example(seed=3, dims=(96, 95), smallest=1e-12)
    def test_positivity_edge(self, seed, dims, smallest):
        """``U diag(lam) U*`` through JSON floats, with ``rank`` positive
        eigenvalues summing to ``1 - smallest``, then ``smallest``, then
        zeros: rejected, with the smallest eigenvalue named, exactly when
        it lies below ``-DEFAULT_TOL``.  A 1-dimensional state of unit
        trace has no room for a second eigenvalue; ``smallest = 1e-12`` at
        ``rank = dim - 1`` is full rank."""
        dim, rank = dims
        rng = np.random.default_rng(seed)
        lam = np.zeros(dim)
        lam[:rank] = rng.dirichlet(np.ones(rank)) * (1.0 - smallest)
        lam[rank] = smallest
        u = random_unitary(rng, dim)
        rho = (u * lam) @ u.conj().T
        obj = json.loads(json.dumps(density_to_dict(0.5 * (rho + rho.conj().T))))
        if smallest < -DEFAULT_TOL:
            with pytest.raises(ValueError) as info:
                density_from_dict(obj)
            assert str(info.value) == "not positive semidefinite: min eigenvalue -1.001e-09"
        else:
            assert density_from_dict(obj).shape == (dim, dim)

    @pytest.mark.parametrize("dim, rank", [(1, 1), (32, 1), (32, 3), (32, 32), (48, 48), (64, 2), (64, 64),
                                           (96, 5), (96, 48), (96, 96)])
    def test_positive_state_needs_no_eigensolver(self, monkeypatch, dim, rank):
        """The benchmark's stored shapes, Ginibre states of ranks 1 to full
        through JSON floats, are certified by the Cholesky factorization
        alone: neither ``eigvalsh`` nor ``eigh`` is called."""
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        objs = [json.loads(json.dumps(density_to_dict(random_density(np.random.default_rng(seed), dim, rank))))
                for seed in range(3)]
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for obj in objs:
            rho = density_from_dict(obj)
            assert np.array_equal(rho.view(float).reshape(dim, dim, 2), obj["entries"])

    def test_matrix_is_read_only(self):
        for obj in (density_to_dict(np.eye(2) / 2), pure_state_dict(bell_state(2))):
            rho = density_from_dict(obj)
            with pytest.raises(ValueError):
                rho[0, 0] = 9.0


class TestBellState:
    def test_qubit_amplitudes(self):
        st = bell_state(2)
        expected = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
        assert st.shape == (2, 2)
        assert max_abs_diff(st, expected) == 0.0

    def test_idler_reduction_is_maximally_mixed(self):
        rho = idler_reduction(bell_state(4))
        assert purity(rho) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            bell_state(1)


class TestReductions:
    def test_bell_idler_reduction(self):
        rho = idler_reduction(bell_state(2))
        assert max_abs_diff(rho, np.eye(2) / 2) < 1e-12

    def test_product_state_pure_idler(self):
        amp = np.zeros((2, 2), dtype=complex)
        amp[0, 0] = 1.0
        rho = idler_reduction(amp)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_skewed_superposition(self):
        amp = np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex)
        rho = idler_reduction(amp)
        assert max_abs_diff(rho, np.diag([0.8, 0.2])) < 1e-12

    def test_reductions_share_nonzero_spectra(self):
        for seed, (d_s, d_i) in enumerate([(2, 5), (4, 3), (5, 5)]):
            st = haar_random_state(d_s, d_i, seed=seed)
            rho_s = partial_trace(projector(st), d_s, d_i, side="right")
            ws = np.linalg.eigvalsh(rho_s)[::-1]
            wi = np.linalg.eigvalsh(idler_reduction(st))[::-1]
            r = min(d_s, d_i)
            assert np.allclose(ws[:r], wi[:r], atol=1e-10)
            assert np.allclose(ws[r:], 0.0, atol=1e-10)
            assert np.allclose(wi[r:], 0.0, atol=1e-10)


class TestEffectiveRank:
    def test_pure_state(self):
        assert effective_rank_k(np.diag([1.0, 0, 0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_maximally_mixed(self, d):
        assert effective_rank_k(np.eye(d) / d) == pytest.approx(d, abs=1e-10)

    def test_two_level_example(self):
        assert effective_rank_k(np.diag([0.8, 0.2])) == pytest.approx(1 / 0.68, abs=1e-12)

    def test_schmidt_rank_bound(self):
        for seed, (d_s, d_i) in enumerate([(2, 2), (3, 5), (5, 2), (4, 4)]):
            k = effective_rank_k(idler_reduction(haar_random_state(d_s, d_i, seed=seed)))
            assert 1.0 - 1e-10 <= k <= min(d_s, d_i) + 1e-10


class TestHaarRandomState:
    def test_normalized(self):
        st = haar_random_state(3, 4, seed=0)
        assert st.shape == (3, 4)
        assert abs(np.vdot(st, st).real - 1.0) < 1e-12

    def test_seed_determinism(self):
        a = haar_random_state(3, 4, seed=123)
        b = haar_random_state(3, 4, seed=123)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d_s, d_i", [(d_s, d_i) for d_s in (2, 3, 8, 64) for d_i in (1, d_s, 5)])
    @pytest.mark.parametrize("n", [0, 1, 100])
    def test_batch_equals_the_per_sample_oracle(self, d_s, d_i, n):
        """Bit for bit, so every seed keeps its sample."""
        seeds = np.random.SeedSequence(d_s * d_i + n).generate_state(n)
        got = haar_random_amplitudes(d_s, d_i, seeds)
        assert np.array_equal(got.view(float), haar_amplitudes_oracle(d_s, d_i, seeds).view(float))

    def test_batch_longer_than_a_chunk_equals_the_oracle(self):
        """1025 samples at d = 8, more than verify-bell's 1024 a chunk."""
        seeds = np.random.SeedSequence(17).generate_state(1025)
        got = haar_random_amplitudes(8, 8, seeds)
        assert np.array_equal(got.view(float), haar_amplitudes_oracle(8, 8, seeds).view(float))

    @pytest.mark.parametrize("d_s, d_i", [(2, 1), (3, 3), (8, 5), (64, 64)])
    def test_single_state_equals_the_oracle(self, d_s, d_i):
        for seed in (0, 7, 2**32 - 1):
            want = haar_amplitudes_oracle(d_s, d_i, [seed])[0]
            assert np.array_equal(haar_random_state(d_s, d_i, seed).view(float), want.view(float))

    def test_mean_effective_rank_cross_generator(self):
        # Library samples against an independent sampler on another bit
        # generator; the two mean inverse purities must agree within 3 sigma.
        # The mean reduced purity itself has a known value for a 2x2 space:
        # (d_s + d_i) / (d_s * d_i + 1) = 4/5.
        n = 10_000
        k_lib = np.empty(n)
        for i in range(n):
            a = haar_random_state(2, 2, seed=50_000 + i)
            rho = a.conj().T @ a
            k_lib[i] = 1.0 / np.real(np.trace(rho @ rho))

        legacy = np.random.Generator(np.random.MT19937(777))
        k_ind = np.empty(n)
        purity_ind = np.empty(n)
        for i in range(n):
            v = legacy.standard_normal(4) + 1j * legacy.standard_normal(4)
            v /= np.linalg.norm(v)
            a = v.reshape(2, 2)
            rho = a.conj().T @ a
            p = np.real(np.trace(rho @ rho))
            purity_ind[i] = p
            k_ind[i] = 1.0 / p

        se = np.sqrt(k_lib.var(ddof=1) / n + k_ind.var(ddof=1) / n)
        assert abs(k_lib.mean() - k_ind.mean()) < 3 * se
        se_p = np.sqrt(purity_ind.var(ddof=1) / n)
        assert abs(purity_ind.mean() - 0.8) < 3 * se_p


class TestPcg64Seeding:
    """``_pcg64_states`` derives numpy's own ``PCG64(seed)`` state for every
    seed below ``2**32`` at once, so the sampler built on it keeps every
    seed's stream; both are held to numpy itself."""

    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=0)
    @example(seed=1)
    @example(seed=2**31)
    @example(seed=2**32 - 1)
    @settings(deadline=None, max_examples=300)
    def test_state_is_numpys_bit_for_bit(self, seed):
        want = np.random.PCG64(seed).state["state"]
        assert _pcg64_states(np.array([seed], dtype=np.uint32)) == [(want["state"], want["inc"])]

    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), max_size=64),
        d_s=st.integers(2, 5),
        d_i=st.integers(1, 5),
    )
    @example(seeds=[], d_s=2, d_i=1)
    @example(seeds=[0, 1, 2**31, 2**32 - 1], d_s=3, d_i=3)
    @settings(deadline=None, max_examples=100)
    def test_sampler_equals_the_per_seed_oracle(self, seeds, d_s, d_i):
        got = haar_random_amplitudes(d_s, d_i, seeds)
        assert np.array_equal(got.view(float), haar_amplitudes_oracle(d_s, d_i, seeds).view(float))


class TestSchmidtFamilyState:
    """``schmidt_probe``'s Schmidt weights; the probe built from them
    (``conftest.schmidt_amplitudes``) must have the dense idler reduction
    ``diag(spectrum)``."""

    def test_rank_one_is_product(self):
        lam = schmidt_probe([1.0])
        assert lam.tolist() == [1.0]
        assert effective_rank_k(idler_reduction(schmidt_amplitudes(3, lam))) == pytest.approx(1.0)

    def test_uniform_matches_bell(self):
        lam = schmidt_probe(np.full(3, 1 / 3))
        assert max_abs_diff(lam, np.full(3, 1 / 3)) < 1e-15
        assert max_abs_diff(schmidt_amplitudes(3, lam), bell_state(3)) < 1e-12

    def test_prescribed_spectrum(self):
        lam = schmidt_probe([0.5, 0.3, 0.2])
        rho = idler_reduction(schmidt_amplitudes(4, lam))
        assert max_abs_diff(rho, np.diag([0.5, 0.3, 0.2])) < 1e-12
        assert effective_rank_k(rho) == pytest.approx(1 / 0.38, abs=1e-12)

    def test_rejects_bad_spectra(self):
        with pytest.raises(ValueError):
            schmidt_probe([0.7, 0.7, -0.4])
        with pytest.raises(ValueError):
            schmidt_probe([0.5, 0.3])  # sums to 0.8

    def test_diagonal_holds_unit_roots_of_the_spectrum(self):
        """The weights are 1-D floats, the spectrum in descending order,
        whose roots, the probe's diagonal, have unit length."""
        lam = schmidt_probe([0.0, 0.52, 0.01, 0.47])
        assert lam.shape == (4,) and lam.dtype == float
        assert max_abs_diff(np.sqrt(lam), np.sqrt([0.52, 0.47, 0.01, 0.0])) < 1e-15
        assert abs(np.linalg.norm(np.sqrt(lam)) - 1.0) < 1e-15

    def test_sum_tolerance(self):
        off = [0.5, 0.5005]  # sums to 1 + 5e-4
        with pytest.raises(ValueError, match="sums to 1.0005,"):
            schmidt_probe(off)
        with pytest.raises(ValueError, match=r"sums to 1\.000000002\d*, expected 1 within 1\.0e-09"):
            schmidt_probe([0.5, 0.5 + 2e-9])
        lam = schmidt_probe([0.5, 0.5 + 5e-10])
        assert abs(lam.sum() - 1.0) < 1e-15

    def test_rejects_zero_sum_at_any_tolerance(self):
        with pytest.raises(ValueError, match="sums to 0.0, expected 1"):
            schmidt_probe([0.0, 0.0])
        with pytest.raises(ValueError, match="sums to -1e-12, expected 1"):
            schmidt_probe([-1e-12, 0.0])

    def test_negative_entries_count_as_zero(self):
        lam = schmidt_probe([0.5, -1e-13, 0.5 + 1e-13])
        assert lam[2] == 0.0  # the smallest weight, last
        with pytest.raises(ValueError, match="non-negative"):
            schmidt_probe([0.5, np.nan, 0.5])

    def test_the_floor_is_spectrum_floor(self):
        """An entry at ``-SPECTRUM_FLOOR`` counts as 0; the float below it fails."""
        assert SPECTRUM_FLOOR == 1e-12
        assert schmidt_probe([0.5, -SPECTRUM_FLOOR, 0.5 + SPECTRUM_FLOOR])[2] == 0.0
        with pytest.raises(ValueError, match="non-negative"):
            schmidt_probe([0.5, math.nextafter(-SPECTRUM_FLOOR, -math.inf), 0.5 + SPECTRUM_FLOOR])

    def test_permuting_the_spectrum_keeps_the_weights_exactly(self):
        """The normalization is an exactly rounded sum and the weights come
        sorted, so they do not depend on the order of the entries (nor on
        BLAS) to the last bit: near-rank-one, unsorted and random spectra,
        with zeros."""
        rng = np.random.default_rng(20)
        spectra = [[0.999999999998, 1e-12, 1e-12], [0.0, 0.52, 0.01, 0.47]]
        for d in rng.integers(2, 41, size=300):
            spec = rng.dirichlet(np.full(d, rng.uniform(0.05, 2.0)))
            spec[rng.random(d) < 0.1] = 0.0
            spectra.append(spec / spec.sum() if spec.any() else np.full(d, 1.0 / d))
        for spec in spectra:
            spec = np.asarray(spec)
            lam = schmidt_probe(spec)
            for order in (rng.permutation(spec.size), np.arange(spec.size)[::-1]):
                assert np.array_equal(schmidt_probe(spec[order]), lam)
            assert np.all(lam[:-1] >= lam[1:])


class TestJsonFormat:
    def test_state_round_trip(self):
        """A pure state decodes to its amplitude vector, signal-major, the
        dense oracle's amplitudes bit for bit."""
        st = haar_random_state(2, 3, seed=8)
        back = density_from_dict(pure_state_dict(st))
        assert back.shape == (6,) and np.array_equal(back, st.reshape(-1))

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.integers(2, 96).flatmap(lambda d_s: st.tuples(st.just(d_s), st.integers(1, 96 // d_s))),
    )
    @example(seed=0, dims=(2, 1))
    @example(seed=1, dims=(2, 48))
    def test_projector_needs_no_second_check(self, seed, dims):
        """A pure state decodes to a read-only amplitude vector.  The
        projector ``diagonalize`` builds from it where it meets a stored
        state has the squared norm as its trace and is Hermitian to a few
        ulps: ``np.outer`` is not exactly conjugate-symmetric."""
        psi = density_from_dict(pure_state_dict(haar_random_state(*dims, seed=seed)))
        assert psi.shape == (dims[0] * dims[1],) and not psi.flags.writeable
        rho = np.outer(psi, psi.conj())
        assert abs(np.trace(rho) - 1.0) <= DEFAULT_TOL
        assert max_abs_diff(rho, rho.conj().T) <= 4 * np.finfo(float).eps

    def test_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="squared norm 2, expected 1"):
            density_from_dict(pure_state_dict([[1.0], [1.0]]))
        with pytest.raises(ValueError, match="squared norm 0.5"):
            density_from_dict(pure_state_dict(np.full((2, 1), 0.5)))
        with pytest.raises(ValueError, match=r"squared norm 1\.000000002\d*, expected 1"):
            density_from_dict(pure_state_dict([[math.sqrt(0.5)], [math.sqrt(0.5 + 2e-9)]]))
        density_from_dict(pure_state_dict([[math.sqrt(0.5)], [math.sqrt(0.5 + 5e-10)]]))

    def test_state_rejects_small_signal(self):
        with pytest.raises(ValueError, match="signal dimension must be >= 2, got 1"):
            density_from_dict(pure_state_dict([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="idler dimension must be >= 1, got 0"):
            density_from_dict({"d_s": 2, "d_i": 0, "amplitudes": []})

    def test_state_rejects_wrong_length(self):
        obj = {"d_s": 2, "d_i": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ValueError, match="expected 4 amplitudes, got 2"):
            density_from_dict(obj)

    def test_state_projector_is_rank_one(self):
        """The spectrum of the projector that ``diagonalize`` builds for a
        pure state against a stored one, here at ``p0 = 1``."""
        psi = density_from_dict(pure_state_dict(bell_state(2)))
        _, w, _ = diagonalize(psi, np.zeros((4, 4)), 1.0)
        assert np.allclose(sorted(w)[-1], 1.0)
        assert np.allclose(w[:-1], 0.0, atol=1e-12)

    def test_density_round_trip(self):
        rho = idler_reduction(haar_random_state(3, 3, seed=2))
        back = density_from_dict(json.loads(densities_to_json([rho]))[0])
        assert max_abs_diff(back, rho) == 0.0

    def test_density_entries_print_like_per_entry_floats(self):
        """The encoder's text parses to the ``float`` of each part, signed
        zeros, a subnormal and values near the float range included."""
        mat = np.array([[complex(0.5, -0.0), complex(-0.0, 5e-324)], [1e300 - 1e300j, complex(-0.0, 0.0)]])
        assert_round_trip([mat])

    @given(matrix_lists())
    @example([np.array(RANGE_PARTS).view(complex).reshape(2, 2)])
    @example([np.array(EDGE_PARTS).view(complex).reshape(2, 2)])
    @example(list(np.array(RANGE_PARTS + EDGE_PARTS).view(complex).reshape(2, 2, 2)))
    def test_encoder_round_trips_bit_for_bit(self, mats):
        """``json.loads`` reads back every part.  No NaN or infinity is
        drawn: orjson prints them as ``null``, and ``cli`` stops a
        measurement holding one before it is printed."""
        assert_round_trip(mats)

    def test_magnitudes_near_each_cut(self):
        """Every float within 50 steps of a cut, the cut included."""
        assert_magnitudes_round_trip((CUTS.view(np.int64)[:, None] + np.arange(-50, 51)).view(float).ravel())

    def test_magnitudes_at_every_binary_exponent(self):
        """Every power of two with its two neighbours, 0 and the least and
        largest floats."""
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        ends = [0.0, 5e-324, np.finfo(float).max]
        mag = np.unique(np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf), ends]))
        assert_magnitudes_round_trip(mag)

    @given(st.lists(FINITE_WORDS, min_size=1, max_size=64))
    def test_magnitudes_of_raw_bit_patterns(self, words):
        """Any finite float's magnitude."""
        assert_magnitudes_round_trip(np.abs(np.array(words, dtype=np.uint64).view(float)))

    def test_malformed_inputs(self):
        # the format is chosen by key, amplitudes first
        both = {**density_to_dict(np.eye(4) / 4), **pure_state_dict(bell_state(2))}
        assert np.array_equal(density_from_dict(both), bell_state(2).reshape(-1))
        for obj in ({"d_s": 2, "d_i": 2}, {"dim": 1}, [], ["amplitudes"], None):
            with pytest.raises(ValueError, match="neither a pure state nor a density matrix"):
                density_from_dict(obj)
        with pytest.raises(ValueError):
            density_from_dict({"dim": 2, "entries": [[[1, 0]]]})
        # the right number of values, in the wrong shape
        with pytest.raises(ValueError, match=r"expected \[re, im\] pairs"):
            density_from_dict({"d_s": 2, "d_i": 1, "amplitudes": [[1, 0, 0], [0]]})
        with pytest.raises(ValueError, match="rows differ in length"):
            density_from_dict({"dim": 2, "entries": [[[0.5, 0], [0, 0], [0, 0]], [[0.5, 0]]]})
