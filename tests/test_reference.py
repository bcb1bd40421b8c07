"""Every example config against its stored reference output.

The references in `tests/reference/` were written by its `regenerate.py`.
Rows must match within 1e-10 of each column's max |x|. `Jy2` is exactly
0 on resonant lines, whose solves run in real arithmetic, and round-off
noise in references written before that, so it is checked by its size
against `Jx2` instead. The CSV's sha256 is printed, not asserted: FFT bits depend
on the numpy build.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "regenerate", Path(__file__).resolve().parent / "reference" / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RTOL = 1e-10
JY2_RATIO = 1e-8


@pytest.mark.parametrize("case", list(regenerate.CASES))
def test_matches_reference(case, tmp_path):
    ref = regenerate.load(case)
    table, sha256 = regenerate.run_case(case, tmp_path)
    print(f"{case}: sha256 {'matches' if sha256 == ref['sha256'] else 'differs'}")
    assert list(table.columns) == ref["columns"]
    assert table.n_rows == ref["n_rows"]
    picks = np.array([int(i) for i in ref["rows"]])
    stored = np.array(list(ref["rows"].values()))
    for c, name in enumerate(table.columns):
        column = table.rows[:, c]
        if name == "Jy2":
            assert np.sqrt(column.max() / table.column("Jx2").max()) <= JY2_RATIO
            continue
        scale = ref["max_abs"][c]
        assert abs(np.abs(column).max() - scale) <= RTOL * scale, name
        assert np.abs(column[picks] - stored[:, c]).max() <= RTOL * scale, name
