"""Tests for the dense channel-output oracle in ``conftest`` and its trace
identities, which the package's overlap from Schmidt weights
(:func:`~qillum.discrimination.channel_overlap`) is held to, through the
amplitude-matrix traces of ``conftest.amplitude_overlap``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qillum.states import schmidt_probe
from qillum.discrimination import channel_overlap
from conftest import (
    UNIT,
    amplitude_overlap,
    bell_state,
    channel_outputs,
    effective_rank_k,
    haar_random_state,
    hs_distinguishability,
    idler_reduction,
    max_abs_diff,
    product_baseline_state,
    projector,
    purity,
    schmidt_amplitudes,
)


def product_state_00():
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 0] = 1.0
    return amp


def h01(state, eta):
    return hs_distinguishability(*channel_outputs(state, eta))


class TestScenario:
    def test_rejects_eta_out_of_range(self):
        amplitudes = bell_state(2)
        for eta in (1.2, -0.1):
            with pytest.raises(ValueError, match="eta"):
                channel_outputs(amplitudes, eta)


class TestPostSelectedStates:
    def test_bell_remaining_is_maximally_mixed(self):
        _, rho = channel_outputs(bell_state(2), 0.3)
        assert max_abs_diff(rho, np.eye(4) / 4) < 1e-12

    def test_product_remaining(self):
        _, rho = channel_outputs(product_state_00(), 0.3)
        assert max_abs_diff(rho, np.diag([0.5, 0, 0.5, 0])) < 1e-12

    def test_remaining_purity_identity(self):
        for seed, (d_s, d_i) in enumerate([(2, 2), (3, 4), (5, 2)]):
            state = haar_random_state(d_s, d_i, seed=seed)
            _, rho1 = channel_outputs(state, 0.4)
            phi_i = idler_reduction(state)
            assert abs(purity(rho1) - purity(phi_i) / d_s) < 1e-12

    def test_returned_degenerate_mixtures(self):
        state = haar_random_state(3, 3, seed=4)
        rho0, noise = channel_outputs(state, 0.0)
        assert max_abs_diff(rho0, noise) == 0.0
        pure, _ = channel_outputs(state, 1.0)
        assert max_abs_diff(pure, projector(state)) < 1e-15

    def test_returned_purity_half_signal(self):
        rho0, _ = channel_outputs(bell_state(2), 0.5)
        assert purity(rho0) == pytest.approx(0.4375, abs=1e-12)


class TestChannelOutputs:
    """The oracle's outputs are Hermitian, have unit trace and are positive."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_s=st.integers(2, 6),
        d_i=st.integers(1, 5),
        eta=st.floats(0.0, 1.0),
    )
    @example(seed=0, d_s=2, d_i=1, eta=0.0)
    @example(seed=1, d_s=6, d_i=5, eta=1.0)
    def test_outputs_are_density_matrices(self, seed, d_s, d_i, eta):
        state = haar_random_state(d_s, d_i, seed=seed)
        for m in channel_outputs(state, eta):
            assert max_abs_diff(m, m.conj().T) <= 1e-12
            assert abs(np.trace(m) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(m)[0] >= -1e-12


class TestTraceIdentities:
    """Inner products of the channel outputs against the inputs.

    For any pure input: the probe/noise overlap and the noise purity both
    equal (idler purity) / d_s, the cross term equals the noise purity, and
    the returned-state purity is eta^2 + (1 - eta^2) * (idler purity) / d_s.
    """

    @pytest.mark.parametrize("seed,d_s,d_i,eta", [
        (0, 2, 2, 0.5),
        (1, 3, 2, 0.25),
        (2, 2, 5, 0.9),
        (3, 4, 4, 0.0),
        (4, 5, 3, 1.0),
    ])
    def test_all_three(self, seed, d_s, d_i, eta):
        state = haar_random_state(d_s, d_i, seed=seed)
        phi = projector(state)
        rho0, rho1 = channel_outputs(state, eta)
        purity_i = purity(idler_reduction(state))

        overlap_probe_noise = np.trace(phi @ rho1).real
        assert abs(overlap_probe_noise - purity_i / d_s) < 1e-12

        cross = np.trace(rho0 @ rho1).real
        noise_purity = np.trace(rho1 @ rho1).real
        assert abs(cross - noise_purity) < 1e-12

        returned_purity = np.trace(rho0 @ rho0).real
        assert abs(returned_purity - (eta**2 + (1 - eta**2) * purity_i / d_s)) < 1e-12

    @settings(deadline=None, max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        haar=st.booleans(),
        d_s=st.integers(2, 8),
        d_i=st.integers(1, 8),
        tiny=st.sampled_from([0.0, 1e-13, 1e-12, 1e-11]),
        n_tiny=st.integers(0, 7),
        eta=UNIT,
    )
    @example(seed=0, haar=True, d_s=2, d_i=1, tiny=0.0, n_tiny=0, eta=0.0)
    @example(seed=1, haar=True, d_s=8, d_i=8, tiny=0.0, n_tiny=0, eta=1.0)
    @example(seed=2, haar=True, d_s=3, d_i=7, tiny=0.0, n_tiny=0, eta=0.5)
    @example(seed=3, haar=False, d_s=8, d_i=8, tiny=1e-11, n_tiny=7, eta=1.0)
    @example(seed=4, haar=False, d_s=5, d_i=4, tiny=1e-12, n_tiny=2, eta=0.0)
    @example(seed=5, haar=False, d_s=4, d_i=4, tiny=1e-13, n_tiny=3, eta=0.5)
    @example(seed=6, haar=False, d_s=2, d_i=1, tiny=0.0, n_tiny=0, eta=1.0)
    def test_structured_overlap_matches_dense(self, seed, haar, d_s, d_i, tiny, n_tiny, eta):
        """The package's overlap, from the Schmidt weights alone, against the
        traces of the amplitude matrix and the overlap of the dense channel
        outputs.  A Haar state's matrix is not diagonal; its weights are
        its squared singular values."""
        if haar:
            state = haar_random_state(d_s, d_i, seed=seed)
            lam = np.linalg.svd(state, compute_uv=False) ** 2
        else:
            # schmidt_probe pairs idler level m with signal mode m, so its
            # idler dimension is at most d_s; the tiny weights come first,
            # so the spectrum is unsorted (its weights come back descending)
            weights = np.random.default_rng(seed).dirichlet(np.ones(min(d_i, d_s)))
            weights[: min(n_tiny, weights.size - 1)] = tiny
            weights /= weights.sum()
            lam = schmidt_probe(weights)
            state = schmidt_amplitudes(d_s, lam)
        dense = hs_distinguishability(*channel_outputs(state, eta))
        structured = channel_overlap(lam, eta, d_s)
        assert isinstance(structured, float)
        assert abs(structured - amplitude_overlap(state, eta)) <= 1e-12
        assert abs(structured - dense) <= 1e-12

    def test_structured_overlap_shares_traces_across_eta(self):
        """An array of eta gives each value's scalar result."""
        lam = np.linalg.svd(haar_random_state(4, 3, seed=8), compute_uv=False) ** 2
        etas = [0.0, 0.3, 0.7, 1.0]
        stacked = channel_overlap(lam, etas, 4)
        assert stacked.shape == (4,)
        for eta, value in zip(etas, stacked):
            assert value == channel_overlap(lam, eta, 4)


class TestCiBaseline:
    """The dense product-state baseline, kept as the oracle that the
    closed-form baseline error and the advantage column are tested against."""

    def test_idler_rank_is_one(self):
        for seed in range(4):
            state = haar_random_state(3, 3, seed=seed)
            base = product_baseline_state(state)
            assert base.shape == state.shape
            assert effective_rank_k(idler_reduction(base)) == pytest.approx(1.0, abs=1e-10)

    def test_bell_baseline_overlap(self):
        state = bell_state(2)
        assert h01(product_baseline_state(state), 1.0) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
        assert h01(state, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_zero_signal_indistinguishable(self):
        state = bell_state(3)
        assert h01(state, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert h01(product_baseline_state(state), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_signal_populations_match_input_spectrum(self):
        state = haar_random_state(3, 3, seed=13)
        base = product_baseline_state(state)
        got = np.sort(np.abs(base[:, 0]) ** 2)[::-1]
        spec = np.sort(np.linalg.eigvalsh(idler_reduction(state)))[::-1]
        assert np.allclose(got, spec, atol=1e-10)
