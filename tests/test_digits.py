"""Every printed digit of a flat probe's sweep rows against a 50-digit
oracle.

A flat probe (``bell``, or ``uniform-rank:<r>``) on ``d_s`` signal modes
has every number of its row in closed form: with ``r`` flat weights the
effective rank is ``r``, the overlap ``1 / sqrt(1 + eta^2 (d_s r - 1))``
and the minimum error that of ``n = d_s r`` flat weights (``p1`` where
``c = p0 (1 - eta) - p1 >= 0``, else ``p0 (1 - eta) - c/n`` where ``p0 eta
+ c/n > 0``, else ``p0``).  These are taken here in mpmath at 50 digits,
at the float ``eta`` and ``p0`` as given, for the mathematical flat
weights ``1/r``, whose float differs by at most half an ulp; the sweep
takes its error from the secular root all the same.  The grid reaches
``d_s = 10^7``, where a flat probe is still one weight.
"""

import csv

import pytest

from qillum import cli
from qillum.analysis import SWEEP_COLUMNS
from conftest import assert_printed_digits

ETAS = [0.0, 0.1, 0.37, 1.0]
DIMS = [2, 24, 10**3, 10**5, 10**7]
RANKS = [1, 2, 3, 24, 1000]


def flat_row_oracle(eta, d_s, rank, p0):
    """``h01`` (both overlap columns), ``p_err`` and ``p_err_ci`` of the flat
    probe of ``rank`` weights on ``d_s`` signal modes, at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        eta, p0 = mpmath.mpf(eta), mpmath.mpf(p0)
        c = p0 * (1 - eta) - (1 - p0)

        def error(n):
            if c >= 0:
                return 1 - p0
            return p0 * (1 - eta) - c / n if p0 * eta + c / n > 0 else p0

        h01 = 1 / mpmath.sqrt(1 + eta**2 * (d_s * rank - 1))
        return h01, error(d_s * rank), error(d_s)


@pytest.mark.parametrize("p0", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("d_s", DIMS)
def test_flat_rows_print_every_digit(tmp_path, d_s, p0):
    """``d_i`` and ``k_i`` print the rank exactly, and ``h01_closed``,
    ``h01_direct``, ``p_err`` and ``p_err_ci`` each lie within one unit of
    the 12th significant digit of the oracle."""
    ranks = [r for r in RANKS if r <= d_s]
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--eta", ",".join(map(str, ETAS)), "--d", str(d_s), "--family", "bell"]
    for r in ranks:
        argv += ["--family", f"uniform-rank:{r}"]
    assert cli.main([*argv, "--priors", str(p0), "--out", str(out)]) == 0
    with out.open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert [tuple(row) for row in rows] == [SWEEP_COLUMNS] * len(ETAS) * (1 + len(ranks))
    points = [(eta, rank) for eta in ETAS for rank in [d_s, *ranks]]
    for row, (eta, rank) in zip(rows, points):
        assert float(row["eta"]) == eta and row["d_s"] == str(d_s)
        assert row["d_i"] == row["k_i"] == str(rank), row
        h01, p_err, p_err_ci = flat_row_oracle(eta, d_s, rank, p0)
        for column, want in (("h01_closed", h01), ("h01_direct", h01), ("p_err", p_err), ("p_err_ci", p_err_ci)):
            assert_printed_digits(row[column], want)
