"""Exact and closed-form distinguishability for single-photon illumination.

For an entangled signal/idler probe sent through the illumination channel,
the package computes the exact minimum error of telling "target present"
from "target absent" and the normalized Hilbert-Schmidt overlap of the two
channel outputs, with the overlap's closed form in the physical
parameters.  It sweeps both over parameter grids and checks numerically
that the maximally entangled probe is optimal.  A sweep probe is its
``(d_s, d_i)`` amplitude matrix, with the Schmidt coefficients
``sqrt(lam)`` on the diagonal: the error comes from the weights ``lam``
and the overlap from traces of that matrix, so no dense
``(d_s d_i)``-dimensional channel output is built.  Each probe is
evaluated over the whole ``eta`` grid, one call per column; the unentangled
baseline is the kernel at the single weight 1.  The dense minimum
error (trace-norm diagonalization, with the optimal measurement) serves
arbitrary stored states.  Inputs are validated where they enter, in
:mod:`qillum.states` and at the user parameters; the layers above call
``numpy`` directly.
"""

from .states import (
    DEFAULT_TOL,
    BipartiteState,
    DensityMatrix,
    density_from_dict,
    density_to_dict,
    haar_random_amplitudes,
    schmidt_probe,
    state_from_dict,
)
from .discrimination import (
    channel_overlap,
    h01_closed_form,
    helstrom_error,
    optimal_povm,
    schmidt_helstrom_error,
)
from .analysis import (
    OptimalityReport,
    SweepRecord,
    VerificationError,
    bell_family,
    fixed_spectrum_family,
    run_sweep,
    uniform_rank_family,
    verify_bell_optimality,
)

__version__ = "0.1.0"
