"""Tests for the dense complex-matrix primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qillum.linalg import (
    eigh,
    kron,
    max_abs_diff,
    partial_trace,
    trace_norm,
)
from conftest import random_hermitian, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestKron:
    def test_identity_blocks(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_blocks(self):
        got = kron(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))
        assert np.array_equal(got, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_pauli_product_hand_expanded(self):
        # blocks [[0*Z, 1*Z], [1*Z, 0*Z]] written out entry by entry
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(kron(X, Z), expected)

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        da=st.integers(1, 3),
        db=st.integers(1, 3),
        dc=st.integers(1, 3),
    )
    def test_associativity(self, seed, da, db, dc):
        rng = np.random.default_rng(seed)
        a, b, c = (random_hermitian(rng, d) for d in (da, db, dc))
        assert max_abs_diff(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-12

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 4)
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            kron(np.ones((2, 3)), np.eye(2))


class TestPartialTrace:
    def test_product_factorization(self):
        rng = np.random.default_rng(17)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 4)
        m = kron(a, b)
        assert max_abs_diff(partial_trace(m, 3, 4, "right"), np.trace(b) * a) < 1e-12
        assert max_abs_diff(partial_trace(m, 3, 4, "left"), np.trace(a) * b) < 1e-12

    def test_maximally_entangled_reduction(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        proj = np.outer(v, v.conj())
        assert max_abs_diff(partial_trace(proj, 2, 2, "left"), np.eye(2) / 2) <= 1e-15

    def test_skewed_superposition(self):
        # projector onto sqrt(.8)|00> + sqrt(.2)|11>, left factor summed out:
        # diagonal blocks contribute 0.8 and 0.2 on the matching idler levels
        v = np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)], dtype=complex)
        proj = np.outer(v, v.conj())
        assert max_abs_diff(partial_trace(proj, 2, 2, "left"), np.diag([0.8, 0.2])) < 1e-15

    def test_preserves_trace(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 12)
        for side in ("left", "right"):
            reduced = partial_trace(m, 3, 4, side)
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), 2, 2, "left")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), 2, 2, "up")


class TestEigh:
    def test_diagonal_input_ascending(self):
        w, _ = eigh(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1.0, 3.0])

    def test_pauli_x_spectrum(self):
        w, _ = eigh(X)
        assert np.allclose(w, [-1.0, 1.0])

    @pytest.mark.parametrize("dim", [2, 5, 16, 64])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        h = random_hermitian(rng, dim)
        w, v = eigh(h)
        assert max_abs_diff(v @ np.diag(w) @ v.conj().T, h) < 1e-10
        assert max_abs_diff(v.conj().T @ v, np.eye(dim)) < 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_tolerance_is_explicit(self):
        skew = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            eigh(skew, tol=1e-9)
        eigh(skew, tol=1e-3)  # accepted when the caller loosens it


class TestTraceNorm:
    def test_absolute_eigenvalue_sum(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)

    def test_zero_matrix(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_pure_state_difference(self):
        # |0><0| - |+><+| has eigenvalues +-1/sqrt(2)
        zero = np.diag([1.0, 0.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert trace_norm(zero - plus) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = random_hermitian(rng, 6)
            u = random_unitary(rng, 6)
            assert abs(trace_norm(u @ m @ u.conj().T) - trace_norm(m)) < 1e-10

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
    def test_triangle_inequality(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            trace_norm(np.array([[0, 2], [0, 0]], dtype=complex))
