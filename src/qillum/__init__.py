"""Exact and closed-form distinguishability for single-photon illumination.

The package builds the target-present and target-absent channel outputs for
an entangled signal/idler probe, computes the exact minimum discrimination
error (trace-norm diagonalization, with the optimal measurement) and the
normalized Hilbert-Schmidt overlap with its closed form in the physical
parameters, and verifies monotonicity and the optimality of the maximally
entangled probe numerically.  Inputs are validated where they enter, in
:mod:`qillum.states` and at the user parameters; the layers above call
``numpy`` directly.
"""

from .states import (
    DEFAULT_TOL,
    BipartiteState,
    DensityMatrix,
    bell_state,
    density_from_dict,
    density_to_dict,
    effective_rank_k,
    haar_random_amplitudes,
    haar_random_state,
    idler_reduction,
    schmidt,
    schmidt_family_state,
    state_from_dict,
    state_to_dict,
)
from .illumination import channel_outputs, target_absent_state, target_present_state
from .discrimination import (
    h01_closed_form,
    helstrom_error,
    hs_distinguishability,
    optimal_povm,
    povm_error,
    schmidt_helstrom_error,
)
from .analysis import (
    MonotonicityReport,
    OptimalityReport,
    SpectrumProbeReport,
    StateFamily,
    SweepRecord,
    VerificationError,
    bell_family,
    co_monotonicity_violations,
    fixed_spectrum_family,
    run_sweep,
    spectra_with_effective_rank,
    spectrum_dependence_probe,
    unentangled_error,
    uniform_rank_family,
    verify_bell_optimality,
    verify_monotonicity,
)

__version__ = "0.1.0"
