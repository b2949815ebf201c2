"""Tests for the channel-output construction and its trace identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qillum.states import (
    BipartiteState,
    bell_state,
    effective_rank_k,
    idler_reduction,
)
from qillum.illumination import channel_outputs
from qillum.discrimination import hs_distinguishability
from conftest import haar_random_state, max_abs_diff, product_baseline_state


def product_state_00():
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    return BipartiteState(2, 2, amp)


def h01(state, eta):
    return hs_distinguishability(*channel_outputs(state, eta))


class TestScenario:
    def test_rejects_eta_out_of_range(self):
        for eta in (1.2, -0.1):
            with pytest.raises(ValueError, match="eta"):
                channel_outputs(bell_state(2), eta)


class TestPostSelectedStates:
    def test_bell_remaining_is_maximally_mixed(self):
        _, rho = channel_outputs(bell_state(2), 0.3)
        assert max_abs_diff(rho.mat, np.eye(4) / 4) < 1e-12

    def test_product_remaining(self):
        _, rho = channel_outputs(product_state_00(), 0.3)
        assert max_abs_diff(rho.mat, np.diag([0.5, 0, 0.5, 0])) < 1e-12

    def test_remaining_purity_identity(self):
        for seed, (d_s, d_i) in enumerate([(2, 2), (3, 4), (5, 2)]):
            state = haar_random_state(d_s, d_i, seed=seed)
            _, rho1 = channel_outputs(state, 0.4)
            phi_i = idler_reduction(state)
            assert abs(rho1.purity() - phi_i.purity() / d_s) < 1e-12

    def test_returned_degenerate_mixtures(self):
        state = haar_random_state(3, 3, seed=4)
        rho0, noise = channel_outputs(state, 0.0)
        assert max_abs_diff(rho0.mat, noise.mat) == 0.0
        pure, _ = channel_outputs(state, 1.0)
        assert max_abs_diff(pure.mat, state.projector()) < 1e-15

    def test_returned_purity_half_signal(self):
        rho0, _ = channel_outputs(bell_state(2), 0.5)
        assert rho0.purity() == pytest.approx(0.4375, abs=1e-12)


class TestChannelOutputs:
    """Positivity is no longer checked on construction, so it is checked here."""

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
        for rho in channel_outputs(state, eta):
            m = rho.mat
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
        phi = state.projector()
        rho0, rho1 = (rho.mat for rho in channel_outputs(state, eta))
        purity_i = idler_reduction(state).purity()

        overlap_probe_noise = np.trace(phi @ rho1).real
        assert abs(overlap_probe_noise - purity_i / d_s) < 1e-12

        cross = np.trace(rho0 @ rho1).real
        noise_purity = np.trace(rho1 @ rho1).real
        assert abs(cross - noise_purity) < 1e-12

        returned_purity = np.trace(rho0 @ rho0).real
        assert abs(returned_purity - (eta**2 + (1 - eta**2) * purity_i / d_s)) < 1e-12


class TestCiBaseline:
    """The dense product-state baseline, kept as the oracle that the
    closed-form baseline error and the advantage column are tested against."""

    def test_idler_rank_is_one(self):
        for seed in range(4):
            state = haar_random_state(3, 3, seed=seed)
            base = product_baseline_state(state)
            assert (base.d_s, base.d_i) == (state.d_s, state.d_i)
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
        got = np.sort(np.abs(base.amplitude_matrix()[:, 0]) ** 2)[::-1]
        spec = np.sort(np.linalg.eigvalsh(idler_reduction(state).mat))[::-1]
        assert np.allclose(got, spec, atol=1e-10)
