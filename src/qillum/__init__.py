"""Exact and closed-form distinguishability for single-photon illumination.

For an entangled signal/idler probe sent through the illumination channel,
the package computes the exact minimum error of telling "target present"
from "target absent" and the normalized Hilbert-Schmidt overlap of the two
channel outputs, with the overlap's closed form in the physical
parameters.  It sweeps both over parameter grids and checks numerically
that the maximally entangled probe is optimal.  A sweep probe is its
Schmidt weights ``lam``: the error comes from them and the overlap from
three traces of ``diag(lam)``, so no amplitude matrix and no dense
``(d_s d_i)``-dimensional channel output is built.  ``verify-bell``
reduces each random pure probe, a ``(d_s, d_i)`` amplitude matrix, to its
weights by one singular-value decomposition.  Each sweep probe is
evaluated over the whole ``eta`` grid, one call per column; the unentangled
baseline is the kernel at the single weight 1.  A sweep is one float table,
a row per grid point, with the columns ``analysis.SWEEP_COLUMNS`` names;
the command line writes it as CSV.  The dense minimum
error (trace-norm diagonalization, with the optimal measurement) serves
arbitrary stored states, a pure one as its projector.  Inputs are
validated where they enter, in :mod:`qillum.states` and at the user
parameters; the layers above call ``numpy`` directly.  Import the
submodules: :mod:`qillum.states`, :mod:`qillum.discrimination`,
:mod:`qillum.analysis` and the command line, :mod:`qillum.cli`.
"""

__version__ = "0.1.0"
