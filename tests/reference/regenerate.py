"""Reference outputs of the example configs, and the script that rewrites them.

Each case is a `docs/examples` config, run in process exactly as the CLI
runs it; the three `dirac_*` cases rerun the time-march examples on the
unbroadened line at dt = 0.5 ns. For every case `<case>.json` in this
directory stores the row count, each column's max |x|, the CSV's sha256
and about 64 evenly spaced rows plus each column's argmax row.
`tests/test_reference.py` checks the current code against them.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/reference/regenerate.py [CASE ...]

rewrites the named cases (all by default) and prints, per column, the
largest change of the stored rows relative to the column's max.
Regenerating is a change of test data: record it, with that table, in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from cavityspin import harness
from cavityspin.cli import _load_config

HERE = Path(__file__).resolve().parent
EXAMPLES = HERE.parent.parent / "docs" / "examples"
DIRAC = ("density.kind=delta", "grid.dt_ns=0.5")
CASES = {path.stem: (path, ()) for path in sorted(EXAMPLES.glob("*.json"))} | {
    f"dirac_{stem}": (EXAMPLES / f"{stem}.json", DIRAC)
    for stem in ("long_pulse", "train_map", "max_scan")
}
N_SAMPLES = 64


def run_case(case: str, directory) -> tuple[harness.ResultTable, str]:
    """Run one case serially in process; return its table and its CSV's sha256."""
    path, overrides = CASES[case]
    scenario = json.loads(path.read_text())["scenario"]
    config = _load_config(str(path), scenario, overrides)
    table = harness.run_scenario(config)
    csv_path = Path(directory) / f"{case}.csv"
    table.write_csv(csv_path)
    return table, hashlib.sha256(csv_path.read_bytes()).hexdigest()


def summarize(table: harness.ResultTable, sha256: str) -> dict:
    rows = table.rows
    n = table.n_rows
    picks = np.round(np.linspace(0, n - 1, min(N_SAMPLES, n))).astype(int)
    picks = np.unique(np.concatenate([picks, np.abs(rows).argmax(axis=0)]))
    return {
        "columns": list(table.columns),
        "n_rows": n,
        "max_abs": np.abs(rows).max(axis=0).tolist(),
        "sha256": sha256,
        "rows": {str(i): rows[i].tolist() for i in picks},
    }


def load(case: str) -> dict:
    return json.loads((HERE / f"{case}.json").read_text())


def main(cases) -> None:
    for case in cases or CASES:
        with tempfile.TemporaryDirectory() as directory:
            new = summarize(*run_case(case, directory))
        path = HERE / f"{case}.json"
        if path.exists():
            old = load(case)
            common = [i for i in new["rows"] if i in old["rows"]]
            for c, name in enumerate(new["columns"]):
                scale = new["max_abs"][c] or 1.0
                moved = max((abs(new["rows"][i][c] - old["rows"][i][c]) for i in common),
                            default=float("nan"))
                print(f"{case} {name}: {moved / scale:.2e}")
        path.write_text(json.dumps(new, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
