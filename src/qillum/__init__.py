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
the whole ``eta`` grid, with the columns ``analysis.SWEEP_COLUMNS`` names.
The dense minimum error, with the optimal measurement, serves arbitrary
stored states.  Inputs are validated where they enter, in
:mod:`qillum.states` and at the user parameters.  Import the submodules:
:mod:`qillum.states`, :mod:`qillum.discrimination`, :mod:`qillum.analysis`
and the command line, :mod:`qillum.cli`.
"""

__version__ = "0.1.0"
