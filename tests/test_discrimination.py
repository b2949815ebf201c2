"""Tests for measurement error probabilities and the overlap measure."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qillum.states import DEFAULT_TOL as TOL, DensityMatrix, schmidt_probe
from qillum.discrimination import (
    channel_overlap,
    flat_probe_error,
    h01_closed_form,
    helstrom_error,
    optimal_povm,
    schmidt_helstrom_error,
)
from qillum.analysis import (
    bell_family,
    run_sweep,
    uniform_rank_family,
)
from conftest import (
    UNIT,
    channel_outputs,
    effective_rank_k,
    evaluate_state_metrics,
    ginibre,
    haar_random_state,
    hs_distinguishability,
    idler_reduction,
    max_abs_diff,
    povm_error,
    random_density,
    random_projective_povm,
    random_two_outcome_povm,
    random_unitary,
    schmidt_amplitudes,
    schmidt_helstrom_oracle,
    sweep_columns,
    unentangled_error,
)


def dm(mat):
    return DensityMatrix(np.asarray(mat, dtype=complex))


ZERO = dm(np.diag([1.0, 0.0]))
ONE = dm(np.diag([0.0, 1.0]))
PLUS = dm(np.full((2, 2), 0.5))


def hermitian_defect(m):
    return max_abs_diff(m, m.conj().T)


def random_state_of_rank(rng, dim, rank):
    """Random density matrix of the given rank (rank < dim is rank-deficient)."""
    g = ginibre(rng, dim, rank)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return dm(0.5 * (rho + rho.conj().T))


class TestPovmError:
    def test_always_guess_zero(self):
        povm = (np.eye(2), np.zeros((2, 2)))
        assert povm_error(ZERO, PLUS, 0.4, povm) == pytest.approx(0.6, abs=1e-12)

    def test_orthogonal_states_perfectly_resolved(self):
        assert povm_error(ZERO, ONE, 0.5, (ZERO.mat, ONE.mat)) == pytest.approx(0.0, abs=1e-12)

    def test_computational_basis_on_zero_vs_plus(self):
        povm = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert povm_error(ZERO, PLUS, 0.5, povm) == pytest.approx(0.25, abs=1e-12)


class TestProblemValidation:
    def test_rejects_dim_mismatch(self):
        other = dm(np.eye(3) / 3)
        for call in (
            lambda: helstrom_error(ZERO, other),
            lambda: optimal_povm(ZERO, other),
        ):
            with pytest.raises(ValueError, match="dimension"):
                call()

    def test_rejects_bad_priors(self):
        for p0 in (-0.1, 1.5, float("nan")):
            for call in (helstrom_error, optimal_povm):
                with pytest.raises(ValueError, match="prior"):
                    call(ZERO, PLUS, p0)


class TestHelstrom:
    def test_identical_states(self):
        assert helstrom_error(PLUS, PLUS, p0=0.3) == pytest.approx(0.3, abs=1e-12)

    def test_orthogonal_states(self):
        assert helstrom_error(ZERO, ONE) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vs_plus(self):
        # weighted difference has eigenvalues +-1/(2 sqrt(2))
        expected = 0.5 * (1 - 1 / np.sqrt(2))
        assert helstrom_error(ZERO, PLUS) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_smaller_prior(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p0 = float(rng.uniform(0, 1))
            rho0, rho1 = dm(random_density(rng, 4)), dm(random_density(rng, 4))
            assert 0.0 <= helstrom_error(rho0, rho1, p0) <= min(p0, 1 - p0) + 1e-12


class TestOptimalPovm:
    def test_orthogonal_pure_states(self):
        povm = optimal_povm(ZERO, ONE)
        assert povm_error(ZERO, ONE, 0.5, povm) == pytest.approx(0.0, abs=1e-12)

    def test_identical_states_larger_prior_wins(self):
        e0, _ = optimal_povm(PLUS, PLUS, p0=0.7)
        assert max_abs_diff(e0, np.eye(2)) < 1e-10

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        rank0=st.integers(1, 8),
        rank1=st.integers(1, 8),
        p0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @example(seed=0, dim=1, rank0=1, rank1=1, p0=0.5)
    @example(seed=1, dim=4, rank0=1, rank1=1, p0=0.0)
    @example(seed=2, dim=6, rank0=2, rank1=3, p0=1.0)
    def test_matches_helstrom_on_random_qutrits(self, seed, dim, rank0, rank1, p0):
        """The measurement is a valid projective POVM and attains the
        Helstrom bound, which never exceeds the smaller prior."""
        rng = np.random.default_rng(seed)
        rho0 = random_state_of_rank(rng, dim, min(rank0, dim))
        rho1 = random_state_of_rank(rng, dim, min(rank1, dim))
        e0, e1 = optimal_povm(rho0, rho1, p0, TOL)
        for e in (e0, e1):
            assert hermitian_defect(e) <= 1e-12
            assert np.linalg.eigvalsh(e)[0] >= -TOL
        assert max_abs_diff(e0 + e1, np.eye(dim)) <= 1e-12
        floor = helstrom_error(rho0, rho1, p0)
        assert abs(povm_error(rho0, rho1, p0, (e0, e1)) - floor) <= dim * TOL
        assert floor <= min(p0, 1.0 - p0) + 1e-12

    def test_no_random_povm_beats_it(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            rho0, rho1 = dm(random_density(rng, dim)), dm(random_density(rng, dim))
            floor = helstrom_error(rho0, rho1)
            for maker in (random_projective_povm, random_two_outcome_povm):
                for _ in range(10):
                    challenger = maker(rng, dim)
                    assert povm_error(rho0, rho1, 0.5, challenger) >= floor - 1e-10


def haar_weights(d_s, d_i, seed):
    """A Haar probe and its Schmidt weights (idler eigenvalues, unclipped)."""
    state = haar_random_state(d_s, d_i, seed)
    return state, np.linalg.eigvalsh(idler_reduction(state).mat)


class TestSchmidtHelstrom:
    """The Schmidt-space kernel against dense Helstrom on the channel outputs."""

    @settings(deadline=None, max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        haar=st.booleans(),
        d_s=st.integers(2, 8),
        d_i=st.integers(1, 8),
        tiny=st.sampled_from([0.0, 1e-13, 1e-12, 1e-11]),
        n_tiny=st.integers(0, 7),
        eta=UNIT,
        p0=UNIT,
    )
    @example(seed=0, haar=True, d_s=2, d_i=1, tiny=0.0, n_tiny=0, eta=0.0, p0=0.0)
    @example(seed=1, haar=True, d_s=3, d_i=8, tiny=0.0, n_tiny=0, eta=1.0, p0=1.0)
    @example(seed=2, haar=True, d_s=8, d_i=5, tiny=0.0, n_tiny=0, eta=1.0, p0=0.0)
    @example(seed=3, haar=False, d_s=8, d_i=8, tiny=1e-11, n_tiny=7, eta=0.0, p0=1.0)
    @example(seed=4, haar=False, d_s=5, d_i=4, tiny=1e-12, n_tiny=2, eta=1.0, p0=0.5)
    @example(seed=5, haar=False, d_s=4, d_i=4, tiny=1e-13, n_tiny=1, eta=0.5, p0=0.5)
    @example(seed=6, haar=False, d_s=2, d_i=1, tiny=0.0, n_tiny=0, eta=1.0, p0=1.0)
    def test_matches_dense(self, seed, haar, d_s, d_i, tiny, n_tiny, eta, p0):
        if haar:
            state, weights = haar_weights(d_s, d_i, seed)
        else:
            # schmidt_probe pairs idler level m with signal mode m, so its
            # idler dimension is at most d_s
            weights = np.random.default_rng(seed).dirichlet(np.ones(min(d_i, d_s)))
            weights[: min(n_tiny, weights.size - 1)] = tiny
            weights /= weights.sum()
            state = schmidt_amplitudes(d_s, schmidt_probe(d_s, weights))
        dense = helstrom_error(*channel_outputs(state, eta), p0)
        assert abs(schmidt_helstrom_error(weights, eta, d_s, p0) - dense) <= 1e-12

    @pytest.mark.parametrize("p0", [0.3, 0.5, 0.8])
    def test_continuous_at_rank_cutoff(self, p0):
        """The kernel has no rank cutoff: a weight one ulp below 1e-12 counts
        like one at it, where dropping it would move the error by about
        1e-13."""
        def error(eps):
            return schmidt_helstrom_error([0.6, 0.4 - eps, eps], 0.5, 4, p0)

        cutoff = 1e-12
        assert abs(error(np.nextafter(cutoff, 0.0)) - error(cutoff)) <= 1e-15

    @settings(deadline=None, max_examples=60)
    @given(d_s=st.integers(2, 8), eta=UNIT, p0=UNIT)
    @example(d_s=2, eta=0.0, p0=0.0)
    @example(d_s=8, eta=1.0, p0=1.0)
    def test_rank_one_is_the_unentangled_baseline(self, d_s, eta, p0):
        """Two closed forms of the rank-one case must agree."""
        assert abs(schmidt_helstrom_error([1.0], eta, d_s, p0) - unentangled_error(eta, d_s, p0)) <= 1e-15

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_s=st.integers(2, 8),
        d_i=st.integers(1, 8),
        etas=st.tuples(UNIT, UNIT).map(sorted),
        p0=UNIT,
    )
    @example(seed=0, d_s=2, d_i=2, etas=[0.0, 1.0], p0=0.0)
    @example(seed=1, d_s=4, d_i=1, etas=[0.0, 1.0], p0=1.0)
    @example(seed=2, d_s=6, d_i=6, etas=[0.0, 0.5], p0=0.5)
    def test_non_increasing_in_eta(self, seed, d_s, d_i, etas, p0):
        """p0 rho0 - p1 rho1 = (p0 - p1) rho1 + p0 eta (psi psi^+ - rho1): its
        trace norm is convex in eta and never below its trace |p0 - p1|, its
        value at eta = 0, so it cannot fall on [0, 1] and p_err cannot rise."""
        _, weights = haar_weights(d_s, d_i, seed)
        lo, hi = etas
        assert schmidt_helstrom_error(weights, hi, d_s, p0) <= schmidt_helstrom_error(weights, lo, d_s, p0) + 1e-12

    @settings(deadline=None, max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        d_i=st.integers(1, 8),
        d_s=st.integers(2, 8),
        tiny=st.sampled_from([0.0, 1e-13, 1e-12, 1e-11]),
        n_tiny=st.integers(0, 7),
        eta=UNIT,
        p0=UNIT,
    )
    @example(seed=0, n=1, d_i=1, d_s=2, tiny=0.0, n_tiny=0, eta=0.0, p0=0.0)
    @example(seed=1, n=4, d_i=1, d_s=8, tiny=0.0, n_tiny=0, eta=1.0, p0=1.0)
    @example(seed=2, n=5, d_i=8, d_s=3, tiny=0.0, n_tiny=7, eta=1.0, p0=0.0)
    @example(seed=3, n=3, d_i=6, d_s=6, tiny=1e-12, n_tiny=3, eta=0.0, p0=1.0)
    @example(seed=4, n=6, d_i=4, d_s=5, tiny=1e-13, n_tiny=2, eta=0.5, p0=0.5)
    @example(seed=5, n=2, d_i=5, d_s=4, tiny=1e-11, n_tiny=4, eta=1.0, p0=0.5)
    def test_stacked_equals_rows(self, seed, n, d_i, d_s, tiny, n_tiny, eta, p0):
        """A stack of probes gives each row's 1-D result; rows may carry
        zero weights or weights around 1e-12."""
        weights = np.random.default_rng(seed).dirichlet(np.ones(d_i), size=n)
        weights[:, : min(n_tiny, d_i - 1)] = tiny
        weights /= weights.sum(axis=1, keepdims=True)
        stacked = schmidt_helstrom_error(weights, eta, d_s, p0)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (n,)
        for row, value in zip(weights, stacked):
            single = schmidt_helstrom_error(row, eta, d_s, p0)
            assert isinstance(single, float)
            assert abs(value - single) <= 1e-15

    @settings(deadline=None, max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_i=st.integers(1, 8),
        d_s=st.integers(2, 8),
        tiny=st.sampled_from([0.0, 1e-13, 1e-12]),
        n_tiny=st.integers(0, 7),
        etas=st.lists(UNIT, min_size=1, max_size=6),
        p0=UNIT,
    )
    @example(seed=0, d_i=1, d_s=2, tiny=0.0, n_tiny=0, etas=[0.0, 1.0], p0=0.0)
    @example(seed=1, d_i=1, d_s=8, tiny=0.0, n_tiny=0, etas=[1.0, 0.0, 0.5], p0=1.0)
    @example(seed=2, d_i=8, d_s=3, tiny=0.0, n_tiny=7, etas=[1.0, 0.0], p0=0.0)
    @example(seed=3, d_i=6, d_s=6, tiny=1e-12, n_tiny=3, etas=[0.0, 1.0, 0.3], p0=1.0)
    @example(seed=4, d_i=4, d_s=5, tiny=1e-13, n_tiny=2, etas=[0.5] * 6, p0=0.5)
    def test_eta_array_equals_scalar_calls(self, seed, d_i, d_s, tiny, n_tiny, etas, p0):
        """One probe over an eta grid, and a stack with one eta per row, give
        exactly the per-eta results."""
        weights = np.random.default_rng(seed).dirichlet(np.ones(d_i), size=len(etas))
        weights[:, : min(n_tiny, d_i - 1)] = tiny
        weights /= weights.sum(axis=1, keepdims=True)
        column = schmidt_helstrom_error(weights[0], etas, d_s, p0)
        stacked = schmidt_helstrom_error(weights, etas, d_s, p0)
        broadcast = schmidt_helstrom_error(weights[:1], etas, d_s, p0)
        assert column.shape == stacked.shape == broadcast.shape == (len(etas),)
        for k, eta in enumerate(etas):
            single = schmidt_helstrom_error(weights[0], eta, d_s, p0)
            assert isinstance(single, float)
            assert column[k] == single and broadcast[k] == single
            assert stacked[k] == schmidt_helstrom_error(weights[k], eta, d_s, p0)

    def test_memory_does_not_grow_with_the_grid(self):
        """300 efficiencies at d_i = 128 would be a 39 MB stack of
        d_i x d_i blocks; the secular root needs a few arrays of one weight
        vector per efficiency (0.3 MB each) and stays under 4 MB."""
        weights = np.full(128, 1.0 / 128)
        etas = np.linspace(0.0, 1.0, 300)
        tracemalloc.start()
        try:
            column = schmidt_helstrom_error(weights, etas, 128, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert column[-1] == schmidt_helstrom_error(weights, 1.0, 128, 0.4)

    def test_rejects_bad_parameters(self):
        for weights in ([1.0], [[1.0], [1.0]]):
            for eta, d_s, p0 in ((1.5, 2, 0.5), (np.nan, 2, 0.5), (0.5, 1, 0.5), (0.5, 2, np.nan)):
                with pytest.raises(ValueError):
                    schmidt_helstrom_error(weights, eta, d_s, p0)
        with pytest.raises(ValueError, match="shape"):
            schmidt_helstrom_error(np.ones((2, 2, 2)) / 2, 0.5, 2, 0.5)


def spectrum(seed, d_i, tiny=0.0, n_tiny=0):
    """Random Schmidt weights summing to 1, in random order, of which
    ``min(n_tiny, d_i - 1)`` equal ``tiny`` before normalization."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(d_i))
    weights[: min(n_tiny, d_i - 1)] = tiny
    return rng.permutation(weights / weights.sum())


def tie_efficiencies(p0):
    """The eta at which ``c = p0 (1 - eta) - p1`` is 0, and its neighbours
    (none for ``p0 < 1/2``, where c < 0 on all of [0, 1])."""
    if p0 < 0.5:
        return []
    eta = 1.0 - (1.0 - p0) / p0
    return [float(np.nextafter(eta, 0.0)), eta, float(np.nextafter(eta, 1.0))]


def hard_case(seed, d_i, d_s, p0, eta=None, tiny=0.0, n_tiny=0, threshold=None):
    """``(weights, eta, d_s, p0)``; ``eta`` defaults to the first one past
    the tie c = 0, and ``threshold=t`` sets it to ``1 + t`` times the eta at
    which the root leaves 0 (``a #{lam > 0} = s``)."""
    weights = spectrum(seed, d_i, tiny, n_tiny)
    if threshold is not None:
        eta = (1.0 - 2.0 * p0) / (p0 * (np.count_nonzero(weights) * d_s - 1.0)) * (1.0 + threshold)
    elif eta is None:
        eta = tie_efficiencies(p0)[-1]
    return weights, eta, d_s, p0


HARD_CASES = [
    # c just below 0: mu is close to p0, the error near p1
    *(hard_case(k, 6, 4, p0) for k, p0 in enumerate([0.6, 0.75, 0.9, 0.97, 0.9999])),
    # the root just above 0
    *(hard_case(k, d_i, 3, 0.3, threshold=t)
      for k, (d_i, t) in enumerate([(4, 1e-12), (4, 1e-6), (8, 1e-9), (2, 1e-3), (12, 1e-12)])),
    # weights down to 1e-300
    *(hard_case(k, 8, 5, p0, eta=0.7, tiny=t, n_tiny=5)
      for k, (t, p0) in enumerate([(1e-300, 0.5), (1e-150, 0.4), (1e-20, 0.6), (1e-300, 0.9), (1e-12, 0.45)])),
    # eta = 1: a small error
    *(hard_case(k, 12, 12, p0, eta=1.0) for k, p0 in enumerate([0.5, 0.6, 0.9, 0.99, 0.35])),
    # the verify-bell golden run's parameters
    *(hard_case(k, 4, 4, 0.4, eta=0.3) for k in range(5)),
]


def exact_error(weights, eta, d_s, p0):
    """The probe's minimum error at 50 digits: the weights as exact binary
    fractions, normalized to sum 1, and the Schmidt-space block's
    eigenvalues from mpmath's ``eigsy``, not a secular root."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lam = [mpmath.mpf(float(x)) for x in weights]
        total = mpmath.fsum(lam)
        lam = [x / total for x in lam]
        p0, eta = mpmath.mpf(p0), mpmath.mpf(eta)
        c = p0 * (1 - eta) - (1 - p0)
        block = mpmath.matrix(len(lam))
        for i, x in enumerate(lam):
            for j, y in enumerate(lam):
                block[i, j] = p0 * eta * mpmath.sqrt(x * y) + (c / d_s * x if i == j else 0)
        eigenvalues = mpmath.eigsy(block, eigvals_only=True)
        norm = mpmath.fsum(abs(e) for e in eigenvalues) + (d_s - 1) * abs(c) / d_s
        return (1 - norm) / 2


class TestSecularRoot:
    """The structure the kernel relies on: ``p0 rho0 - p1 rho1`` has at most
    one positive eigenvalue, the secular root, whose vector is known, and
    the closed forms of the Bell and the unentangled probe bracket it."""

    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_s=st.integers(2, 8),
        d_i=st.integers(1, 8),
        tiny=st.sampled_from([0.0, 1e-300, 1e-200, 1e-100, 1e-13, 1e-12, 1e-11]),
        n_tiny=st.integers(0, 7),
        eta=UNIT,
        p0=UNIT,
    )
    @example(seed=0, d_s=2, d_i=1, tiny=0.0, n_tiny=0, eta=0.0, p0=0.0)
    @example(seed=1, d_s=8, d_i=8, tiny=1e-300, n_tiny=7, eta=1.0, p0=1.0)
    @example(seed=2, d_s=3, d_i=6, tiny=0.0, n_tiny=4, eta=1.0, p0=0.75)
    @example(seed=3, d_s=5, d_i=4, tiny=1e-11, n_tiny=3, eta=0.5, p0=0.5)
    @example(seed=4, d_s=4, d_i=8, tiny=1e-200, n_tiny=2, eta=0.9, p0=0.9)
    @example(seed=5, d_s=8, d_i=1, tiny=0.0, n_tiny=0, eta=1.0, p0=0.5)
    def test_matches_stacked_eigensolve(self, seed, d_s, d_i, tiny, n_tiny, eta, p0):
        """Against the oracle's ``eigvalsh`` of the blocks, at eta's ends and
        at and next to c = 0.  The oracle's own rounding reaches about
        2e-15."""
        weights = spectrum(seed, d_i, tiny, n_tiny)
        etas = [eta, 0.0, 1.0, *tie_efficiencies(p0)]
        got = schmidt_helstrom_error(weights, etas, d_s, p0)
        assert max_abs_diff(got, schmidt_helstrom_oracle(weights, etas, d_s, p0)) <= 4e-15

    @pytest.mark.parametrize("weights, eta, d_s, p0", HARD_CASES)
    def test_hard_cases_match_mpmath(self, weights, eta, d_s, p0):
        got = schmidt_helstrom_error(weights, eta, d_s, p0)
        assert abs(got - exact_error(weights, eta, d_s, p0)) <= 4e-16

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), d_s=st.integers(2, 5), d_i=st.integers(1, 5), eta=UNIT, p0=UNIT)
    @example(seed=0, d_s=2, d_i=1, eta=1.0, p0=0.5)
    @example(seed=1, d_s=5, d_i=5, eta=0.5, p0=0.4)
    @example(seed=2, d_s=3, d_i=3, eta=0.05, p0=0.2)
    def test_one_positive_eigenvalue_with_the_secular_vector(self, seed, d_s, d_i, eta, p0):
        """When c < 0 the dense oracle's ``p0 rho0 - p1 rho1`` has one
        eigenvalue above 1e-12, ``mu = p0 - p_err``, when the root is
        positive, and none when it is 0; its eigenvector is
        ``chi ~ sum_m sqrt(lam_m) / (mu + s lam_m) |m>|m>``, which the
        optimal measurement's ``E0`` holds."""
        c = p0 * (1.0 - eta) - (1.0 - p0)
        assume(c < 0.0)
        weights = spectrum(seed, min(d_i, d_s))
        mu = p0 - schmidt_helstrom_error(weights, eta, d_s, p0)
        assume(abs(mu - 1e-12) > 1e-14)
        rho0, rho1 = channel_outputs(schmidt_amplitudes(d_s, weights), eta)
        w, v = np.linalg.eigh(p0 * rho0.mat - (1.0 - p0) * rho1.mat)
        assert np.count_nonzero(w > 1e-12) == (mu > 1e-12)
        if mu > 1e-12:
            assert abs(w[-1] - mu) <= 1e-12
        if mu > 1e-3:  # a gap of at least mu to the rest
            chi = np.zeros((d_s, weights.size))
            np.fill_diagonal(chi, np.sqrt(weights) / (mu - c / d_s * weights))
            chi = chi.reshape(-1) / np.linalg.norm(chi)
            assert abs(np.vdot(chi, v[:, -1])) >= 1.0 - 1e-9
            # the optimal measurement's "target present" outcome holds chi
            e0, _ = optimal_povm(rho0, rho1, p0)
            assert abs(np.vdot(chi, e0 @ chi) - 1.0) <= 1e-9

    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_s=st.integers(2, 8),
        d_i=st.integers(1, 8),
        tiny=st.sampled_from([0.0, 1e-300, 1e-12]),
        n_tiny=st.integers(0, 7),
        eta=UNIT,
        p0=UNIT,
    )
    @example(seed=0, d_s=2, d_i=1, tiny=0.0, n_tiny=0, eta=0.5, p0=0.5)
    @example(seed=1, d_s=6, d_i=8, tiny=1e-300, n_tiny=7, eta=1.0, p0=0.3)
    @example(seed=2, d_s=4, d_i=4, tiny=0.0, n_tiny=0, eta=0.2, p0=0.8)
    def test_bracketed_by_the_bell_and_unentangled_errors(self, seed, d_s, d_i, tiny, n_tiny, eta, p0):
        """Between the flat-weight closed forms at ``n = d_s d_i`` and
        ``n = d_s``, and exactly ``p1`` wherever ``c >= 0``."""
        weights = spectrum(seed, d_i, tiny, n_tiny)
        etas = np.array([eta, 0.0, 1.0, *tie_efficiencies(p0)])
        p_err = schmidt_helstrom_error(weights, etas, d_s, p0)
        assert np.all(flat_probe_error(etas, d_s * d_i, p0) - 1e-15 <= p_err)
        assert np.all(p_err <= flat_probe_error(etas, d_s, p0) + 1e-15)
        tie = p0 * (1.0 - etas) - (1.0 - p0) >= 0.0
        assert np.all(p_err[tie] == 1.0 - p0)


class TestHsDistinguishability:
    def test_identical_states(self):
        rho = dm(random_density(np.random.default_rng(1), 4))
        assert hs_distinguishability(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_support(self):
        assert hs_distinguishability(ZERO, ONE) == pytest.approx(0.0, abs=1e-12)

    def test_pure_against_maximally_mixed(self):
        half = dm(np.eye(2) / 2)
        assert hs_distinguishability(ZERO, half) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        a, b = dm(random_density(rng, 5)), dm(random_density(rng, 5))
        assert hs_distinguishability(a, b) == pytest.approx(hs_distinguishability(b, a), abs=1e-14)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a, b = dm(random_density(rng, 4)), dm(random_density(rng, 4))
            u = random_unitary(rng, 4)
            rotated = hs_distinguishability(
                dm(u @ a.mat @ u.conj().T), dm(u @ b.mat @ u.conj().T)
            )
            assert abs(rotated - hs_distinguishability(a, b)) < 1e-10

    def test_pure_states_reduce_to_squared_inner_product(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            got = hs_distinguishability(dm(np.outer(u, u.conj())), dm(np.outer(v, v.conj())))
            assert abs(got - abs(np.vdot(u, v)) ** 2) < 1e-12

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            hs_distinguishability(ZERO, dm(np.eye(3) / 3))


class TestClosedForm:
    def test_zero_signal(self):
        for d_s, k_i in [(2, 1.0), (3, 2.5), (6, 6.0)]:
            assert h01_closed_form(0.0, d_s, k_i) == 1.0

    def test_anchor_values(self):
        assert h01_closed_form(1.0, 2, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert h01_closed_form(1.0, 2, 1.0) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    @settings(deadline=None, max_examples=100)
    @given(
        etas=st.lists(UNIT, min_size=1, max_size=8),
        d_s=st.integers(2, 64),
        k_i=st.one_of(st.sampled_from([1.0, 2.0, 64.0]), st.floats(1.0, 64.0)),
    )
    @example(etas=[0.0, 1.0], d_s=2, k_i=1.0)
    @example(etas=[1.0, 0.3, 0.0], d_s=64, k_i=64.0)
    def test_eta_array_equals_scalar_calls(self, etas, d_s, k_i):
        column = h01_closed_form(etas, d_s, k_i)
        assert isinstance(column, np.ndarray) and column.shape == (len(etas),)
        for value, eta in zip(column, etas):
            single = h01_closed_form(eta, d_s, k_i)
            assert isinstance(single, float) and value == single

    @pytest.mark.parametrize("etas", [[0.5, np.nan], [0.2, 1.5], [0.0, -1e-300]])
    def test_any_bad_eta_in_an_array_is_rejected(self, etas):
        """Every function taking an eta array names the first bad entry; NaN
        fails too."""
        bad = str(etas[1])
        with pytest.raises(ValueError, match=f"got {bad}$"):
            h01_closed_form(etas, 2, 1.0)
        with pytest.raises(ValueError, match=f"got {bad}$"):
            schmidt_helstrom_error([0.5, 0.5], etas, 2, 0.5)
        with pytest.raises(ValueError, match=f"got {bad}$"):
            channel_overlap([0.5, 0.5], etas, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            h01_closed_form(1.5, 2, 1.0)
        with pytest.raises(ValueError):
            h01_closed_form(0.5, 1, 1.0)
        with pytest.raises(ValueError):
            h01_closed_form(0.5, 2, 0.5)

    @pytest.mark.parametrize("seed,d_s,d_i", [(0, 2, 2), (1, 3, 4), (2, 5, 3), (3, 4, 4)])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.8, 1.0])
    def test_matches_direct_evaluation(self, seed, d_s, d_i, eta):
        state = haar_random_state(d_s, d_i, seed=seed)
        k_i = effective_rank_k(idler_reduction(state))
        direct, _ = evaluate_state_metrics(state, eta)
        assert abs(direct - h01_closed_form(eta, d_s, k_i)) < 1e-10

    def test_partial_difference_signs_on_grid(self):
        etas = np.linspace(0.1, 1.0, 7)
        dims = range(2, 7)
        ranks = [1.0, 1.5, 2.0, 3.0]
        for d in dims:
            for k in ranks:
                vals = [h01_closed_form(e, d, k) for e in etas]
                assert all(b < a for a, b in zip(vals, vals[1:]))
        for e in etas:
            for k in ranks:
                vals = [h01_closed_form(e, d, k) for d in dims]
                assert all(b < a for a, b in zip(vals, vals[1:]))
        for e in etas:
            for d in dims:
                vals = [h01_closed_form(e, d, k) for k in ranks]
                assert all(b < a for a, b in zip(vals, vals[1:]))


class TestAdvantage:
    """The sweep's advantage column: overlap gained over the unentangled
    baseline, which keeps eta and d_s but has effective idler rank 1."""

    @staticmethod
    def advantage(family, eta, d):
        (advantage,) = sweep_columns(run_sweep([eta], [d], [family]))["advantage"]
        return advantage

    def test_product_input_gives_zero(self):
        assert self.advantage(uniform_rank_family(1), 0.8, 2) == pytest.approx(0.0, abs=1e-10)

    def test_bell_qubit_anchor(self):
        got = self.advantage(bell_family(), 1.0, 2)
        assert got == pytest.approx(1 / np.sqrt(2) - 0.5, abs=1e-10)

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.7])
    def test_grows_with_bell_dimension(self, eta):
        # tabulating 1/sqrt(1 + eta^2 (d-1)) - 1/sqrt(1 + eta^2 (d^2-1))
        # shows a strict increase over d in 2..6 for these eta; at strong
        # signal (eta near 1) the same tabulation peaks around d=4 instead
        vals = [self.advantage(bell_family(), eta, d) for d in range(2, 7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eta", [0.25, 0.6, 1.0])
    def test_matches_closed_form_tabulation(self, eta):
        vals = [self.advantage(bell_family(), eta, d) for d in range(2, 7)]
        expected = [
            h01_closed_form(eta, d, 1.0) - h01_closed_form(eta, d, float(d))
            for d in range(2, 7)
        ]
        assert np.allclose(vals, expected, atol=1e-12)


class TestMixtureChallenge:
    """The minimum over measurements is a true floor for the channel outputs."""

    def test_helstrom_floors_random_povms_on_channel_outputs(self):
        rng = np.random.default_rng(2024)
        for seed in range(5):
            state = haar_random_state(2, 2, seed=seed)
            rho0, rho1 = channel_outputs(state, float(rng.uniform(0.2, 1.0)))
            floor = helstrom_error(rho0, rho1)
            attained = povm_error(rho0, rho1, 0.5, optimal_povm(rho0, rho1))
            assert attained == pytest.approx(floor, abs=1e-10)
            for _ in range(20):
                challenger = random_two_outcome_povm(rng, 4)
                assert povm_error(rho0, rho1, 0.5, challenger) >= floor - 1e-10
