"""Write ``reference/default_grid.csv``, the default grid's expected columns.

    python3 perfbench/make_reference.py

The family, params, r and formula columns are copied from the program's
``reconcile --grid default`` output.  Every oracle value is recomputed here
by exact clique search on this package's own graph powers, and status is
recomputed from formula and oracle; the script stops if either disagrees
with the program.  The witness column is left out on purpose: any maximum
clique is a valid witness.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from nourishing import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["reconcile", "--grid", "default", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    reference = [rows[0][:6]]
    for family, params, r, formula, omega, status, _witness in rows[1:]:
        p, adj = oracle.parse_params(params)
        power = oracle.power_graph(oracle.family_graph(family, p, adj), int(r))
        own = oracle.max_clique_size(power)
        own_status = ("formula-undefined" if formula == "undefined"
                      else "agree" if int(formula) == own else "disagree")
        if (str(own), own_status) != (omega, status):
            raise SystemExit(f"{family} {params} r={r}: program says {omega}/{status}, "
                             f"own search {own}/{own_status}")
        reference.append([family, params, r, formula, str(own), own_status])
    path = HERE / "reference" / "default_grid.csv"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(reference)
    print(f"wrote {len(reference) - 1} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
