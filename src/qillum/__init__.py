"""Exact and closed-form distinguishability for single-photon illumination.

For an entangled signal/idler probe sent through the illumination channel,
the package computes the exact minimum error of telling "target present"
from "target absent" and the normalized Hilbert-Schmidt overlap of the two
channel outputs, with the overlap's closed form in the physical
parameters.  It sweeps both over parameter grids and checks numerically
that the maximally entangled probe is optimal.  A probe is its Schmidt
weights ``lam`` (``verify-bell`` takes a random probe's from one
singular-value decomposition): the error is one secular root, bracketed
by the closed forms of the Bell and the unentangled probe, and the
overlap three traces of ``diag(lam)``.  A sweep is one float table over
the whole ``eta`` grid, with the columns ``analysis.SWEEP_COLUMNS`` names;
a probe there is its weights and their number of copies, so a flat probe
is one weight and costs the same at any dimension.
The minimum error, with the optimal measurement, serves arbitrary stored
states, each decoded once into a read-only complex array (a pure state
into its amplitude vector), from one decomposition per query: a 2x2
problem for two pure states, else one dense eigensolve.  Inputs
are validated once, where they enter: files in :mod:`qillum.states`, user
parameters (a sweep's families among them, parsed into weights once) in
:mod:`qillum.cli`; the rest takes them unchecked.  Import the submodules:
:mod:`qillum.states`, :mod:`qillum.discrimination`, :mod:`qillum.analysis`
and the command line, :mod:`qillum.cli`.
"""

__version__ = "0.1.0"
