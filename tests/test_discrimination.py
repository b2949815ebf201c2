"""Tests for measurement error probabilities and the overlap measure."""

import math
import tracemalloc
from decimal import Context, Decimal
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qillum.states import DEFAULT_TOL as TOL, schmidt_probe
from qillum.discrimination import (
    channel_overlap,
    flat_probe_error,
    h01_closed_form,
    diagonalize,
    helstrom_error,
    optimal_povm,
    schmidt_helstrom_error,
)
from qillum.analysis import run_sweep
from conftest import (
    BELL,
    UNIT,
    channel_outputs,
    effective_rank_k,
    evaluate_state_metrics,
    exact_flat_error,
    float_neighbours,
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
    uniform_rank,
)


ZERO = np.diag([1.0, 0.0])
ONE = np.diag([0.0, 1.0])
PLUS = np.full((2, 2), 0.5)


class TestPovmError:
    def test_always_guess_zero(self):
        povm = (np.eye(2), np.zeros((2, 2)))
        assert povm_error(ZERO, PLUS, 0.4, povm) == pytest.approx(0.6, abs=1e-12)

    def test_orthogonal_states_perfectly_resolved(self):
        assert povm_error(ZERO, ONE, 0.5, (ZERO, ONE)) == pytest.approx(0.0, abs=1e-12)

    def test_computational_basis_on_zero_vs_plus(self):
        povm = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert povm_error(ZERO, PLUS, 0.5, povm) == pytest.approx(0.25, abs=1e-12)


class TestHelstrom:
    def test_identical_states(self):
        assert helstrom_error(diagonalize(PLUS, PLUS, p0=0.3)) == pytest.approx(0.3, abs=1e-12)

    def test_orthogonal_states(self):
        assert helstrom_error(diagonalize(ZERO, ONE)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vs_plus(self):
        # weighted difference has eigenvalues +-1/(2 sqrt(2))
        expected = 0.5 * (1 - 1 / np.sqrt(2))
        assert helstrom_error(diagonalize(ZERO, PLUS)) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_smaller_prior(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p0 = float(rng.uniform(0, 1))
            rho0, rho1 = random_density(rng, 4), random_density(rng, 4)
            assert 0.0 <= helstrom_error(diagonalize(rho0, rho1, p0)) <= min(p0, 1 - p0) + 1e-12


class TestOptimalPovm:
    def test_orthogonal_pure_states(self):
        povm = optimal_povm(diagonalize(ZERO, ONE, vectors=True))
        assert povm_error(ZERO, ONE, 0.5, povm) == pytest.approx(0.0, abs=1e-12)

    def test_identical_states_larger_prior_wins(self):
        e0, _ = optimal_povm(diagonalize(PLUS, PLUS, p0=0.7, vectors=True))
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
        rho0 = random_density(rng, dim, min(rank0, dim))
        rho1 = random_density(rng, dim, min(rank1, dim))
        e0, e1 = optimal_povm(diagonalize(rho0, rho1, p0, vectors=True))
        for e in (e0, e1):
            assert max_abs_diff(e, e.conj().T) <= 1e-12
            assert np.linalg.eigvalsh(e)[0] >= -TOL
        assert max_abs_diff(e0 + e1, np.eye(dim)) <= 1e-12
        floor = helstrom_error(diagonalize(rho0, rho1, p0))
        assert abs(povm_error(rho0, rho1, p0, (e0, e1)) - floor) <= dim * TOL
        assert floor <= min(p0, 1.0 - p0) + 1e-12

    def test_no_random_povm_beats_it(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            rho0, rho1 = random_density(rng, dim), random_density(rng, dim)
            floor = helstrom_error(diagonalize(rho0, rho1))
            for maker in (random_projective_povm, random_two_outcome_povm):
                for _ in range(10):
                    challenger = maker(rng, dim)
                    assert povm_error(rho0, rho1, 0.5, challenger) >= floor - 1e-10


def haar_weights(d_s, d_i, seed):
    """A Haar probe and its Schmidt weights (idler eigenvalues, unclipped)."""
    state = haar_random_state(d_s, d_i, seed)
    return state, np.linalg.eigvalsh(idler_reduction(state))


def probe(raw, copies=1, d_s=2):
    """A stacked probe ``(weights, copies, d_s)``, its copied weights summing to about 1."""
    return np.array(raw, dtype=float) / (copies * math.fsum(raw)), copies, d_s


def dirichlet_probes(seed, d_i, dims, tiny=0.0, n_tiny=0):
    """A probe of one copy per entry of ``dims``: Dirichlet weights of width
    ``d_i``, the first ``min(n_tiny, d_i - 1)`` set to ``tiny`` before normalization."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(d_i), size=len(dims))
    weights[:, : min(n_tiny, d_i - 1)] = tiny
    weights /= weights.sum(axis=1, keepdims=True)
    return [(w, 1, d_s) for w, d_s in zip(weights, dims)]


def stacked_probes(max_width, max_copies=2000):
    """1 to 6 probes of up to ``max_width`` weights, not all zero (``-0.0``,
    tiny ones down to 1e-300), 1 copy (the default) or up to ``max_copies``, 2 to 40 signal modes."""
    weight = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 1e-150, 1e-13, 1e-12, 1e-11]), st.floats(1e-300, 1.0))
    raw = st.lists(weight, min_size=1, max_size=max_width).filter(any)
    probes = st.builds(probe, raw, st.one_of(st.just(1), st.integers(1, max_copies)), st.integers(2, 40))
    return st.lists(probes, min_size=1, max_size=6)


def padded(probes, pad=0):
    """The probes' weights zero-padded to ``pad`` past the widest, their
    copies as a float array (as ``run_sweep`` passes them) and their ``d_s``."""
    stack = np.zeros((len(probes), max(w.size for w, _, _ in probes) + pad))
    for r, (w, _, _) in enumerate(probes):
        stack[r, : w.size] = w
    return stack, np.array([m for _, m, _ in probes], dtype=float), np.array([d for _, _, d in probes])


def scalar_call(f, *args, copies=1):
    """``f(*args)`` on one value each, a float; one copy takes the default."""
    value = f(*args) if copies == 1 else f(*args, copies=copies)
    assert isinstance(value, float)
    return value


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (got, want)


def layouts(f, probes, etas, copies=True):
    """``f`` in each layout ``sweep`` uses, by name, with the index of its
    cells in the (eta, probe) grid: ``vector`` the first probe's 1-D weights
    over the eta vector, ``row`` its ``(1, W)`` row over it, ``per_row`` the
    zero-padded stack with one eta per row (a scalar for one eta), ``column``
    the stack over an eta column; each row with its own ``d_s`` and, unless
    ``copies`` is false, its float copies."""
    stack, m, d_s = padded(probes)
    kw = (lambda r: {"copies": m[r]}) if copies else (lambda r: {})
    eta, rows = np.array(etas), np.arange(len(probes))
    at = rows % eta.size  # row r's eta in the layout of one eta per row
    return {
        "vector": (f(stack[0], eta, d_s[0], **kw(0)), (slice(None), 0)),
        "row": (f(stack[:1], eta, d_s[0], **kw(0)), (slice(None), 0)),
        "per_row": (f(stack, eta[at] if eta.size > 1 else etas[0], d_s, **kw(rows)), (at, rows)),
        "column": (f(stack, eta[:, None], d_s, **kw(rows)), (slice(None), slice(None))),
    }


def assert_layouts(probes, etas, p0, *names):
    """The named layouts of the kernel and the overlap give each (eta, probe)
    cell's scalar call bit for bit; a cell of one copy takes the default."""
    stack, _, _ = padded(probes)
    for f in (partial(schmidt_helstrom_error, p0=p0), channel_overlap):
        cells = np.array([[scalar_call(f, lam, e, d, copies=m) for lam, (_, m, d) in zip(stack, probes)]
                          for e in etas])
        calls = layouts(f, probes, etas)
        for name in names:
            got, at = calls[name]
            assert_same_bits(got, cells[at])


def assert_zeros_keep_the_root_decision(probes, pad, etas, p0):
    """A stack of probes of mixed widths, zero-padded to ``pad`` past the
    widest, over an eta column gives each (eta, probe) cell's 1-D call on the
    probe's nonzero weights: the overlap bit for bit (its zeros are added in
    index order), the error within 8 ulps (its zeros regroup numpy's
    pairwise sums) and so with the same root decision, which gives ``p0`` or
    ``p1`` exactly where no root is taken."""
    stack, copies, d_s = padded(probes, pad)
    for f in (partial(schmidt_helstrom_error, p0=p0), channel_overlap):
        cells = np.array([[f(lam[lam != 0.0], e, d, copies=m) for lam, (_, m, d) in zip(stack, probes)]
                          for e in etas])
        got = f(stack, np.array(etas)[:, None], d_s, copies=copies)
        if f is channel_overlap:
            assert_same_bits(got, cells)
        else:
            assert np.all(np.abs(got - cells) <= 8 * np.spacing(cells)), (got, cells)


def assert_zeros_change_no_sweep_bit(probes, pad, etas, p0):
    """A sweep of the probes as families, each with ``pad`` more zeros after
    its weights, gives the bytes of the sweep of their nonzero weights but
    in ``d_i``, which counts every weight's copies."""
    families = [(np.concatenate((w, np.zeros(pad))), m) for w, m, _ in probes]
    dims = sorted({d for *_, d in probes})
    with_zeros = sweep_columns(run_sweep(etas, dims, families, p0))
    bare = sweep_columns(run_sweep(etas, dims, [(w[w != 0.0], m) for w, m in families], p0))
    for name, column in with_zeros.items():
        if name != "d_i":
            assert_same_bits(column, bare[name])
    assert with_zeros["d_i"].tolist() == [m * w.size for _ in etas for _ in dims for w, m in families]


def closed_form_cells(etas, rows, p0):
    """``h01_closed_form`` and ``flat_probe_error`` (at ``n = d_s``), each
    with its scalar calls, floats, over the (eta, ``(d_s, k_i)`` row) grid."""
    for f in (h01_closed_form, lambda eta, n, _: flat_probe_error(eta, n, p0)):
        yield f, np.array([[scalar_call(f, e, d, k) for d, k in rows] for e in etas])


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
    @example(seed=0, haar=True, d_s=2, d_i=5, tiny=0.0, n_tiny=0, eta=1 / 3, p0=1 / 3)
    def test_matches_dense(self, seed, haar, d_s, d_i, tiny, n_tiny, eta, p0):
        if haar:
            state, weights = haar_weights(d_s, d_i, seed)
            # the idler reduction has rank at most d_s, so its d_i - d_s
            # smallest eigenvalues are zeros that eigvalsh returns as noise
            # near 1e-17; at a tie (a d_s = s) the exact error of such
            # weights moves by about the square root of that noise
            weights[: max(d_i - d_s, 0)] = 0.0
        else:
            # schmidt_probe pairs idler level m with signal mode m, so its
            # idler dimension is at most d_s
            weights = np.random.default_rng(seed).dirichlet(np.ones(min(d_i, d_s)))
            weights[: min(n_tiny, weights.size - 1)] = tiny
            weights /= weights.sum()
            state = schmidt_amplitudes(d_s, schmidt_probe(weights))
        dense = helstrom_error(diagonalize(*channel_outputs(state, eta), p0))
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

    @settings(deadline=None, max_examples=30)
    @given(probes=stacked_probes(12, max_copies=1), eta=UNIT, p0=UNIT)
    @example(probes=dirichlet_probes(0, 1, [2]), eta=0.0, p0=0.0)
    @example(probes=dirichlet_probes(1, 1, [8] * 4), eta=1.0, p0=1.0)
    @example(probes=dirichlet_probes(2, 8, [3] * 5, n_tiny=7), eta=1.0, p0=0.0)
    @example(probes=dirichlet_probes(3, 6, [6] * 3, tiny=1e-12, n_tiny=3), eta=0.0, p0=1.0)
    @example(probes=dirichlet_probes(4, 4, [5] * 6, tiny=1e-13, n_tiny=2), eta=0.5, p0=0.5)
    @example(probes=dirichlet_probes(5, 5, [4] * 2, tiny=1e-11, n_tiny=4), eta=1.0, p0=0.5)
    def test_stacked_equals_rows(self, probes, eta, p0):
        """A stack of probes at one scalar eta gives each row's 1-D call bit
        for bit; rows may carry zero weights or weights around 1e-12."""
        assert_layouts(probes, [eta], p0, "per_row")

    @settings(deadline=None, max_examples=40)
    @given(probes=stacked_probes(12, max_copies=1), etas=st.lists(UNIT, min_size=1, max_size=6), p0=UNIT)
    @example(probes=dirichlet_probes(0, 1, [2] * 2), etas=[0.0, 1.0], p0=0.0)
    @example(probes=dirichlet_probes(1, 1, [8] * 3), etas=[1.0, 0.0, 0.5], p0=1.0)
    @example(probes=dirichlet_probes(2, 8, [3] * 2, n_tiny=7), etas=[1.0, 0.0], p0=0.0)
    @example(probes=dirichlet_probes(3, 6, [6] * 3, tiny=1e-12, n_tiny=3), etas=[0.0, 1.0, 0.3], p0=1.0)
    @example(probes=dirichlet_probes(4, 4, [5] * 6, tiny=1e-13, n_tiny=2), etas=[0.5] * 6, p0=0.5)
    def test_eta_array_equals_scalar_calls(self, probes, etas, p0):
        """One probe's 1-D weights and its ``(1, W)`` row over an eta vector,
        and a stack with one eta per row, give exactly the per-eta results."""
        assert_layouts(probes, etas, p0, "vector", "row", "per_row")

    @settings(deadline=None, max_examples=40)
    @given(probes=stacked_probes(12, max_copies=1), etas=st.lists(UNIT, min_size=1, max_size=6), p0=UNIT)
    @example(probes=dirichlet_probes(0, 1, [2, 40, 2]), etas=[0.0, 1.0], p0=0.3)
    @example(probes=dirichlet_probes(1, 12, [3, 12, 7], n_tiny=11), etas=[1.0, 0.0, 0.5], p0=0.5)
    @example(probes=dirichlet_probes(2, 9, [9, 2], tiny=1e-12, n_tiny=4), etas=[0.25, 0.75], p0=0.8)
    @example(probes=dirichlet_probes(3, 8, [5], tiny=1e-13, n_tiny=3), etas=[0.5], p0=0.5)
    @example(probes=dirichlet_probes(0, 1, [21]), etas=[0.1686305389478389], p0=0.0)
    def test_per_row_signal_dimension_equals_row_calls(self, probes, etas, p0):
        """A stack of probes, each on its own ``d_s``, over an eta column
        gives exactly each (eta, probe) cell's 1-D scalar call, for the error
        and the direct overlap."""
        assert_layouts(probes, etas, p0, "column")

    @settings(deadline=None, max_examples=40)
    @given(probes=stacked_probes(40, max_copies=1), pad=st.integers(0, 12), etas=st.lists(UNIT, min_size=1, max_size=3),
           p0=UNIT)
    @example(probes=[probe([1.0], 1, 2), probe([0.0] * 20 + [1.0], 1, 3)], pad=3, etas=[0.5, 1.0], p0=0.5)
    @example(probes=[probe([0.25] * 4, 1, 4), probe([0.0, 0.5, 0.0, 0.5] + [0.0] * 30, 1, 8),
                     probe([1e-300] * 9 + [1.0], 1, 2)], pad=0, etas=[0.0, 0.7, 1.0], p0=0.37)
    @example(probes=[probe([1.0 / 9] * 9, 1, 8), probe([1.0 / 16] * 16, 1, 2), probe([1.0 / 40] * 40, 1, 5),
                     probe([1e-12] * 8 + [0.5], 1, 3)], pad=1, etas=[1.0], p0=0.4)
    @example(probes=[probe([0.139, 0.124, 0.02, 0.005, 0.208, 0.072, 0.073, 0.071, 0.059, 0.007, 0.0, 0.096], 1, 2),
                     probe([0.025] * 40, 1, 2)], pad=0, etas=[0.3], p0=0.5)
    @example(probes=[probe([0.5, -0.0, 0.5], 1, 2), probe([-0.0, 1.0], 1, 3), probe([0.25, -0.0, 0.0, 0.75], 1, 4)],
             pad=2, etas=[0.0, 1.0], p0=0.0)
    @example(probes=[probe([0.5, -0.0, 0.5], 1, 2), probe([-0.0, 1.0], 1, 3), probe([0.25, -0.0, 0.0, 0.75], 1, 4)],
             pad=2, etas=[0.0, 1.0], p0=1.0)
    @example(probes=[probe([0.5, -0.0, 0.5], 1, 2), probe([-0.0] * 9 + [1.0], 1, 3),
                     probe([0.25, -0.0, 0.0, 0.75] * 3, 1, 4)], pad=1, etas=[0.0, 0.6, 1.0], p0=0.4)
    # a < s < 2a: the first row takes no root, as its 1-D call on [1.0], unless its zero were counted
    @example(probes=[probe([1.0, 0.0], 1, 2), probe([0.5, 0.5], 1, 2)], pad=1, etas=[0.8], p0=0.3)
    def test_zero_padded_row_equals_its_nonzero_weights(self, probes, pad, etas, p0):
        """Zeros (or ``-0.0``, which counts as zero) anywhere, up to 40 weights
        (past the pairwise sums, which start at 8), one weight, and weights
        down to 1e-300: each row gives its nonzero weights' 1-D call, the
        error within 8 ulps and with the same root decision, the overlap
        bit for bit.  ``run_sweep`` drops zeros before the kernel, so they
        change no bit of a sweep (:meth:`TestCounts.test_padding_changes_no_bit`)."""
        assert_zeros_keep_the_root_decision(probes, pad, etas, p0)

    def test_leaves_its_weights_unchanged(self):
        """The kernel sorts a copy of its weights: an unsorted stack and a
        1-D float array, which ``np.asarray`` would not copy, keep their
        bytes."""
        stack, row = np.array([[0.1, 0.6, 0.0, 0.3], [0.25, 0.0, 0.5, 0.25]]), np.array([0.2, 0.0, 0.5, 0.3])
        before = stack.tobytes(), row.tobytes()
        schmidt_helstrom_error(stack, np.array([[0.3], [0.9]]), 4, 0.4)
        schmidt_helstrom_error(row, 0.7, 4, 0.4)
        assert (stack.tobytes(), row.tobytes()) == before

    @pytest.mark.parametrize("eta, p0", [(0.5, 0.3), (0.5, 0.5), (1.0, 0.5)])
    def test_nan_weight_gives_nan(self, eta, p0):
        """Where its row takes a secular root, a NaN weight gives a NaN
        error, which the drivers' bracket checks fail; the other rows of the
        stack keep their 1-D results."""
        stack = np.array([[0.5, math.nan, 0.5], [0.5, 0.25, 0.25]])
        p_err = schmidt_helstrom_error(stack, eta, 4, p0)
        assert math.isnan(p_err[0]) and math.isnan(schmidt_helstrom_error(stack[0], eta, 4, p0))
        assert p_err[1] == schmidt_helstrom_error(stack[1], eta, 4, p0)

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


def t_transform(weights, i, j, t):
    """``weights`` with part of the gap between entries ``i`` and ``j``
    moved from the larger to the smaller: a share ``t`` of it, rounded down
    to whole units of the larger entry's ulp, or nothing where the smaller
    is not a whole number of those units.  Both new entries are then exact
    and lie between the old two, and their sum is kept exactly: the result
    is majorized by ``weights`` (a T-transform toward flat)."""
    out = np.array(weights, dtype=float)
    i, j = (i, j) if out[i] >= out[j] else (j, i)
    big, small = out[i], out[j]
    unit = math.ulp(big)
    if math.fmod(small, unit) == 0.0:
        shift = math.floor(t * (big - small) / unit) * unit
        out[i], out[j] = big - shift, small + shift
    return out


#: Schmidt weights before normalization: exact zeros, tiny ones down to
#: 1e-300 and any in between.
RAW_WEIGHT = st.one_of(st.sampled_from([0.0, 1e-300, 1e-150, 1e-12]), st.floats(1e-300, 1.0))


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
        w, v = np.linalg.eigh(p0 * rho0 - (1.0 - p0) * rho1)
        assert np.count_nonzero(w > 1e-12) == (mu > 1e-12)
        if mu > 1e-12:
            assert abs(w[-1] - mu) <= 1e-12
        if mu > 1e-3:  # a gap of at least mu to the rest
            chi = np.zeros((d_s, weights.size))
            np.fill_diagonal(chi, np.sqrt(weights) / (mu - c / d_s * weights))
            chi = chi.reshape(-1) / np.linalg.norm(chi)
            assert abs(np.vdot(chi, v[:, -1])) >= 1.0 - 1e-9
            # the optimal measurement's "target present" outcome holds chi
            e0, _ = optimal_povm(diagonalize(rho0, rho1, p0, vectors=True))
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

    @settings(deadline=None, max_examples=300)
    @given(
        raw=st.lists(RAW_WEIGHT, min_size=1, max_size=8),
        i=st.integers(0, 7),
        j=st.integers(0, 7),
        t=UNIT,
        d_s=st.integers(2, 16),
        eta=UNIT,
        p0=UNIT,
    )
    @example(raw=[1.0], i=0, j=0, t=0.5, d_s=2, eta=0.5, p0=0.5)
    @example(raw=[0.7, 0.0, 0.3], i=0, j=1, t=0.25, d_s=3, eta=1.0, p0=0.4)
    @example(raw=[0.5, 1e-300, 0.25, 0.0], i=2, j=3, t=1.0, d_s=4, eta=0.3, p0=0.5)
    @example(raw=[1e-300, 2e-300, 0.0], i=0, j=1, t=0.5, d_s=8, eta=0.9, p0=0.6)
    @example(raw=[0.75, 0.25], i=0, j=1, t=1.0 - 2.0**-53, d_s=2, eta=0.5, p0=0.5)
    def test_schur_concave(self, raw, i, j, t, d_s, eta, p0):
        """A T-transform toward flat never raises the error (the secular
        root never falls) and never lowers the effective rank ``k_i``, so
        never raises the closed-form overlap.  ``k_i`` is summed over the
        weights in descending order, as verify-bell's singular values come;
        in another order a swap alone can move it by an ulp either way."""
        total = math.fsum(raw)
        assume(total > 0.0)
        weights = np.array(raw) / total
        flatter = t_transform(weights, i % weights.size, j % weights.size, t)
        assert math.fsum(flatter) == math.fsum(weights)
        assert schmidt_helstrom_error(flatter, eta, d_s, p0) <= schmidt_helstrom_error(weights, eta, d_s, p0) + 1e-15
        k_i, k_flat = (1.0 / np.sum(np.sort(w)[::-1] ** 2) for w in (weights, flatter))
        assert k_flat >= k_i
        assert h01_closed_form(eta, d_s, k_flat) <= h01_closed_form(eta, d_s, k_i)


@st.composite
def copied_probe(draw, max_copies=2000):
    """A probe as Schmidt weights and their number of copies: up to 6
    distinct weights as :data:`RAW_WEIGHT` draws them (exact zeros among
    them), scaled so that the copied weights sum to about 1, and copies
    from 1 to ``max_copies``."""
    raw = draw(st.lists(RAW_WEIGHT, min_size=1, max_size=6, unique=True).filter(any))
    copies = draw(st.integers(1, max_copies))
    return np.array(raw) / (copies * math.fsum(raw)), copies


class TestCounts:
    """A probe given as its weights and a number of copies: each weight is
    counted ``copies`` times in every sum of the error kernel and of the
    direct overlap."""

    @settings(deadline=None, max_examples=30)
    @given(probes=stacked_probes(12), etas=st.lists(UNIT, min_size=1, max_size=4), p0=UNIT)
    @example(probes=[probe([0.5], 2, 2), probe([0.125, 0.0], 8, 8)], etas=[0.0, 0.5, 1.0], p0=0.5)
    def test_stacked_equals_rows(self, probes, etas, p0):
        """A stack of padded probes, each on its own ``d_s`` and with its own
        copies, over an eta column gives exactly each (eta, probe) cell's 1-D
        scalar call."""
        assert_layouts(probes, etas, p0, "column")

    @settings(deadline=None, max_examples=30)
    @given(probes=stacked_probes(40), pad=st.integers(0, 6), etas=st.lists(UNIT, min_size=1, max_size=3), p0=UNIT)
    @example(probes=[probe([0.25, 0.0, 0.125], 2, 4)], pad=0, etas=[0.5], p0=0.5)
    @example(probes=[probe([0.0, 0.0, 0.125], 8, 8)], pad=0, etas=[1.0], p0=0.4)
    # the root is 0 at eta 0.1 either way, and at 0.3 (a < s < 2a) unless the zero weight were counted
    @example(probes=[probe([0.5, 0.0], 2, 2)], pad=0, etas=[0.1, 0.3], p0=0.3)
    # eight weights and a zero among them: a ninth entry would regroup np.sum's pairwise order
    @example(probes=[probe([0.3, 0.2, 0.15, 0.12, 0.0, 0.1, 0.08, 0.03, 0.02], 1, 4)], pad=0, etas=[1.0], p0=0.5)
    def test_padding_changes_no_bit(self, probes, pad, etas, p0):
        """Zero weights, anywhere and at any copies, change no bit of a sweep
        but its ``d_i``, and no root decision of a stacked kernel call."""
        assert_zeros_change_no_sweep_bit(probes, pad, etas, p0)
        assert_zeros_keep_the_root_decision(probes, pad, etas, p0)

    @settings(deadline=None, max_examples=30)
    @given(probes=stacked_probes(12, max_copies=1), etas=st.lists(UNIT, min_size=1, max_size=3), p0=UNIT)
    def test_unit_counts_are_no_counts(self, probes, etas, p0):
        """One copy a probe, as ``run_sweep`` passes it (a float array),
        gives the default's bits in every layout."""
        for f in (partial(schmidt_helstrom_error, p0=p0), channel_overlap):
            default = layouts(f, probes, etas, copies=False)
            for name, (got, _) in layouts(f, probes, etas).items():
                assert_same_bits(got, default[name][0])

    @settings(deadline=None, max_examples=60)
    @given(rank=st.integers(1, 6), extra=st.integers(0, 3), eta=UNIT, p0=UNIT)
    @example(rank=6, extra=0, eta=1.0, p0=0.5)
    @example(rank=1, extra=3, eta=0.0, p0=1.0)
    def test_flat_probe_matches_the_dense_oracle(self, rank, extra, eta, p0):
        """The weight ``1/rank`` with ``rank`` copies against the dense
        channel outputs of the flat probe on ``d_s = rank + extra`` (at
        least 2) signal modes."""
        d_s = max(rank + extra, 2)
        h01, p_err = evaluate_state_metrics(schmidt_amplitudes(d_s, np.full(rank, 1.0 / rank)), eta, p0)
        assert abs(schmidt_helstrom_error([1.0 / rank], eta, d_s, p0, rank) - p_err) <= 1e-12
        assert abs(channel_overlap([1.0 / rank], eta, d_s, rank) - h01) <= 1e-12

    @settings(deadline=None, max_examples=200)
    @given(probe=copied_probe(), small=copied_probe(max_copies=7), d_s=st.integers(2, 40), eta=UNIT, p0=UNIT)
    @example(probe=(np.array([1e-3]), 1000), small=(np.array([0.25, 0.125, 0.125]), 2), d_s=24, eta=1.0, p0=0.5)
    def test_grouped_matches_expanded(self, probe, small, d_s, eta, p0):
        """A probe's ``k`` weights with ``m`` copies are within 8 ulps of
        the weights written out, ``m`` times each.  The overlap is compared
        at copies up to 7: the expanded form's purity, summed in index
        order, drifts as ``n eps`` over ``n`` weights, and the copied one
        does not."""
        def ulps(got, want):
            return abs(got - want) / math.ulp(want)

        (lam, m), (small_lam, small_m) = probe, small
        expanded = schmidt_helstrom_error(np.repeat(lam, m), eta, d_s, p0)
        assert ulps(schmidt_helstrom_error(lam, eta, d_s, p0, m), expanded) <= 8
        expanded = channel_overlap(np.repeat(small_lam, small_m), eta, d_s)
        assert ulps(channel_overlap(small_lam, eta, d_s, small_m), expanded) <= 8


class TestFlatProbeError:
    def test_within_one_step_of_the_exact_value(self):
        """On every cell of the grid the closed form is the correctly rounded
        exact rational or a neighbouring float, and prints its 12 significant
        digits.  The eigenvalue form ``(1 - (|p0 eta + c/n| + (n - 1)|c|/n)) / 2``
        cancels: on this grid it is up to 4046 floats off, and it prints 77
        cells whose exact value is 0 as nonzero."""
        ns = np.array([*range(2, 65), 100, 257, 500, 990, 1000])
        etas = [k / 20 for k in range(21)]
        digits = Context(prec=12)  # rounds half to even, as float formatting does
        for p0 in [0.0, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0]:
            p_err = flat_probe_error(np.array(etas)[:, None], ns, p0)
            for eta, row in zip(etas, p_err.tolist()):
                for n, x in zip(ns.tolist(), row):
                    exact, at = exact_flat_error(eta, n, p0), (eta, n, p0)
                    assert x in float_neighbours(exact), at
                    printed = digits.divide(Decimal(exact.numerator), Decimal(exact.denominator))
                    assert Decimal(format(x, ".12g")) == printed, at


class TestHsDistinguishability:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(1), 4)
        assert hs_distinguishability(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_support(self):
        assert hs_distinguishability(ZERO, ONE) == pytest.approx(0.0, abs=1e-12)

    def test_pure_against_maximally_mixed(self):
        half = np.eye(2) / 2
        assert hs_distinguishability(ZERO, half) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        a, b = random_density(rng, 5), random_density(rng, 5)
        assert hs_distinguishability(a, b) == pytest.approx(hs_distinguishability(b, a), abs=1e-14)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a, b = random_density(rng, 4), random_density(rng, 4)
            u = random_unitary(rng, 4)
            rotated = hs_distinguishability(u @ a @ u.conj().T, u @ b @ u.conj().T)
            assert abs(rotated - hs_distinguishability(a, b)) < 1e-10

    def test_pure_states_reduce_to_squared_inner_product(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            got = hs_distinguishability(np.outer(u, u.conj()), np.outer(v, v.conj()))
            assert abs(got - abs(np.vdot(u, v)) ** 2) < 1e-12

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            hs_distinguishability(ZERO, np.eye(3) / 3)


K_I = st.one_of(st.sampled_from([1.0, 2.0, 64.0]), st.floats(1.0, 64.0))


class TestClosedForm:
    def test_zero_signal(self):
        for d_s, k_i in [(2, 1.0), (3, 2.5), (6, 6.0)]:
            assert h01_closed_form(0.0, d_s, k_i) == 1.0

    def test_anchor_values(self):
        assert h01_closed_form(1.0, 2, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert h01_closed_form(1.0, 2, 1.0) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    @settings(deadline=None, max_examples=50)
    @given(etas=st.lists(UNIT, min_size=1, max_size=8), d_s=st.integers(2, 64), k_i=K_I, p0=UNIT)
    @example(etas=[0.0, 1.0], d_s=2, k_i=1.0, p0=0.5)
    @example(etas=[1.0, 0.3, 0.0], d_s=64, k_i=64.0, p0=0.5)
    def test_eta_array_equals_scalar_calls(self, etas, d_s, k_i, p0):
        for f, cells in closed_form_cells(etas, [(d_s, k_i)], p0):
            assert_same_bits(f(etas, d_s, k_i), cells[:, 0])

    @settings(deadline=None, max_examples=50)
    @given(etas=st.lists(UNIT, min_size=1, max_size=8), p0=UNIT,
           rows=st.lists(st.tuples(st.integers(2, 64), K_I), min_size=1, max_size=6))
    @example(etas=[0.0, 1.0], rows=[(2, 1.0), (64, 64.0)], p0=0.5)
    @example(etas=[1.0, 0.3], rows=[(7, 1.0 + 1e-12)], p0=0.0)
    def test_per_row_signal_dimension_equals_scalar_calls(self, etas, rows, p0):
        """Per-row ``d_s`` (and ``k_i``) broadcast against an eta column, in
        the overlap's and the flat probe's closed forms, give exactly the
        scalar calls."""
        d_s, k_i = (np.array(x) for x in zip(*rows))
        for f, cells in closed_form_cells(etas, rows, p0):
            assert_same_bits(f(np.array(etas)[:, None], d_s, k_i), cells)

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
        assert self.advantage(uniform_rank(1), 0.8, 2) == pytest.approx(0.0, abs=1e-10)

    def test_bell_qubit_anchor(self):
        got = self.advantage(BELL, 1.0, 2)
        assert got == pytest.approx(1 / np.sqrt(2) - 0.5, abs=1e-10)

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.7])
    def test_grows_with_bell_dimension(self, eta):
        # tabulating 1/sqrt(1 + eta^2 (d-1)) - 1/sqrt(1 + eta^2 (d^2-1))
        # shows a strict increase over d in 2..6 for these eta; at strong
        # signal (eta near 1) the same tabulation peaks around d=4 instead
        vals = [self.advantage(BELL, eta, d) for d in range(2, 7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eta", [0.25, 0.6, 1.0])
    def test_matches_closed_form_tabulation(self, eta):
        vals = [self.advantage(BELL, eta, d) for d in range(2, 7)]
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
            floor = helstrom_error(diagonalize(rho0, rho1))
            attained = povm_error(rho0, rho1, 0.5, optimal_povm(diagonalize(rho0, rho1, vectors=True)))
            assert attained == pytest.approx(floor, abs=1e-10)
            for _ in range(20):
                challenger = random_two_outcome_povm(rng, 4)
                assert povm_error(rho0, rho1, 0.5, challenger) >= floor - 1e-10
