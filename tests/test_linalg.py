"""Tests for the dense partial trace in ``conftest``, the oracle that the
suite checks the package's idler reductions against."""

import numpy as np
import pytest

from conftest import max_abs_diff, partial_trace, random_hermitian


class TestPartialTrace:
    def test_product_factorization(self):
        rng = np.random.default_rng(17)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 4)
        m = np.kron(a, b)
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

