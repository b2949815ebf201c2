"""Tests for state construction, validation, reductions and the wire format."""

import numpy as np
import pytest

from qillum.states import (
    BipartiteState,
    DensityMatrix,
    bell_state,
    density_from_dict,
    density_to_dict,
    effective_rank_k,
    idler_reduction,
    schmidt_family_state,
    state_from_dict,
)
from conftest import haar_random_state, max_abs_diff, partial_trace


class TestDensityMatrix:
    def test_accepts_valid(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert rho.dim == 2
        assert rho.purity() == pytest.approx(0.625)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
        skew = np.array([[0.5, 1e-6], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(skew, tol=1e-9)
        DensityMatrix(skew, tol=1e-3)  # accepted when the caller loosens it

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.zeros(shape, dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5, 0.6]).astype(complex))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 9.0


class TestBipartiteState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            BipartiteState(2, 1, np.array([1.0, 1.0]))

    def test_rejects_small_signal(self):
        with pytest.raises(ValueError):
            BipartiteState(1, 2, np.array([1.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            BipartiteState(2, 2, np.array([1.0, 0.0]))

    def test_projector_is_rank_one(self):
        st = bell_state(2)
        w = np.linalg.eigvalsh(st.projector())
        assert np.allclose(sorted(w)[-1], 1.0)
        assert np.allclose(w[:-1], 0.0, atol=1e-12)


class TestBellState:
    def test_qubit_amplitudes(self):
        st = bell_state(2)
        expected = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert max_abs_diff(st.amplitudes, expected) == 0.0

    def test_idler_reduction_is_maximally_mixed(self):
        rho = idler_reduction(bell_state(4))
        assert rho.purity() == pytest.approx(0.25, abs=1e-12)

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            bell_state(1)


class TestReductions:
    def test_bell_idler_reduction(self):
        rho = idler_reduction(bell_state(2))
        assert max_abs_diff(rho.mat, np.eye(2) / 2) < 1e-12

    def test_product_state_pure_idler(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = 1.0
        rho = idler_reduction(BipartiteState(2, 2, amp))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_skewed_superposition(self):
        amp = np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)], dtype=complex)
        rho = idler_reduction(BipartiteState(2, 2, amp))
        assert max_abs_diff(rho.mat, np.diag([0.8, 0.2])) < 1e-12

    def test_reductions_share_nonzero_spectra(self):
        for seed, (d_s, d_i) in enumerate([(2, 5), (4, 3), (5, 5)]):
            st = haar_random_state(d_s, d_i, seed=seed)
            rho_s = partial_trace(st.projector(), d_s, d_i, side="right")
            ws = np.linalg.eigvalsh(rho_s)[::-1]
            wi = np.linalg.eigvalsh(idler_reduction(st).mat)[::-1]
            r = min(d_s, d_i)
            assert np.allclose(ws[:r], wi[:r], atol=1e-10)
            assert np.allclose(ws[r:], 0.0, atol=1e-10)
            assert np.allclose(wi[r:], 0.0, atol=1e-10)


class TestEffectiveRank:
    def test_pure_state(self):
        assert effective_rank_k(DensityMatrix(np.diag([1.0, 0, 0]).astype(complex))) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_maximally_mixed(self, d):
        rho = DensityMatrix(np.eye(d, dtype=complex) / d)
        assert effective_rank_k(rho) == pytest.approx(d, abs=1e-10)

    def test_two_level_example(self):
        rho = DensityMatrix(np.diag([0.8, 0.2]).astype(complex))
        assert effective_rank_k(rho) == pytest.approx(1 / 0.68, abs=1e-12)

    def test_schmidt_rank_bound(self):
        for seed, (d_s, d_i) in enumerate([(2, 2), (3, 5), (5, 2), (4, 4)]):
            k = effective_rank_k(idler_reduction(haar_random_state(d_s, d_i, seed=seed)))
            assert 1.0 - 1e-10 <= k <= min(d_s, d_i) + 1e-10


class TestHaarRandomState:
    def test_normalized(self):
        st = haar_random_state(3, 4, seed=0)
        assert abs(np.vdot(st.amplitudes, st.amplitudes).real - 1.0) < 1e-12

    def test_seed_determinism(self):
        a = haar_random_state(3, 4, seed=123)
        b = haar_random_state(3, 4, seed=123)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            haar_random_state(1, 2, seed=0)
        with pytest.raises(ValueError):
            haar_random_state(2, 0, seed=0)

    def test_mean_effective_rank_cross_generator(self):
        # Library samples against an independent sampler on another bit
        # generator; the two mean inverse purities must agree within 3 sigma.
        # The mean reduced purity itself has a known value for a 2x2 space:
        # (d_s + d_i) / (d_s * d_i + 1) = 4/5.
        n = 10_000
        k_lib = np.empty(n)
        for i in range(n):
            st = haar_random_state(2, 2, seed=50_000 + i)
            a = st.amplitude_matrix()
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


class TestSchmidtFamilyState:
    def test_rank_one_is_product(self):
        st = schmidt_family_state(3, [1.0])
        assert st.d_i == 1
        assert effective_rank_k(idler_reduction(st)) == pytest.approx(1.0)

    def test_uniform_matches_bell(self):
        st = schmidt_family_state(3, np.full(3, 1 / 3))
        assert max_abs_diff(st.amplitudes, bell_state(3).amplitudes) < 1e-12

    def test_prescribed_spectrum(self):
        st = schmidt_family_state(4, [0.5, 0.3, 0.2])
        rho = idler_reduction(st)
        assert max_abs_diff(rho.mat, np.diag([0.5, 0.3, 0.2])) < 1e-12
        assert effective_rank_k(rho) == pytest.approx(1 / 0.38, abs=1e-12)

    def test_rejects_bad_spectra(self):
        with pytest.raises(ValueError):
            schmidt_family_state(2, [0.5, 0.3, 0.2])  # longer than d_s
        with pytest.raises(ValueError):
            schmidt_family_state(3, [0.7, 0.7, -0.4])
        with pytest.raises(ValueError):
            schmidt_family_state(3, [0.5, 0.3])  # sums to 0.8


class TestJsonFormat:
    def test_state_round_trip(self):
        st = haar_random_state(2, 3, seed=8)
        obj = {"d_s": 2, "d_i": 3, "amplitudes": [[z.real, z.imag] for z in st.amplitudes]}
        back = state_from_dict(obj)
        assert back.d_s == 2 and back.d_i == 3
        assert max_abs_diff(back.amplitudes, st.amplitudes) < 1e-15

    def test_density_round_trip(self):
        rho = idler_reduction(haar_random_state(3, 3, seed=2))
        back = density_from_dict(density_to_dict(rho.mat))
        assert max_abs_diff(back.mat, rho.mat) < 1e-15

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            state_from_dict({"d_s": 2, "d_i": 2})
        with pytest.raises(ValueError):
            density_from_dict({"dim": 2, "entries": [[[1, 0]]]})
