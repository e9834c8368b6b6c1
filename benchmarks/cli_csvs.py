#!/usr/bin/env python3
"""Print the CSV reports of ``cfpopt bench`` over the test fixtures, wall times left out.

Usage:
    python3 benchmarks/cli_csvs.py

Runs ``cfpopt bench --problems tests/fixtures --variants all --fstar-file
tests/fixtures/fstar.json`` in-process, into a temporary directory, and prints
``runs.csv`` without its ``ms`` column, then ``aggregate.csv``, each after a
line that names the file.  Everything else in both files is deterministic, so
a refactor that must not change what the command line reports is checked by
running this on the old and the new code and diffing the output.  Exits with
the command's status, after its error output, when the command fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from cfpopt.cli import main as cfpopt_main

    with tempfile.TemporaryDirectory(prefix="cfpopt-cli-csvs-") as tmp:
        with contextlib.redirect_stdout(io.StringIO()):  # the per-run lines and temporary paths
            rc = cfpopt_main(["bench", "--problems", str(FIXTURES), "--variants", "all",
                              "--fstar-file", str(FIXTURES / "fstar.json"), "--out", tmp])
        if rc != 0:
            return rc
        out = csv.writer(sys.stdout, lineterminator="\n")
        for name in ("runs.csv", "aggregate.csv"):
            print(name)
            with open(Path(tmp) / name, newline="") as fh:
                rows = list(csv.reader(fh))
            keep = [i for i, field in enumerate(rows[0]) if field != "ms"]
            out.writerows([row[i] for i in keep] for row in rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
