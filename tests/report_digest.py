"""Print a sha1 of each full-suite JSON report of the check catalog.

Usage (from any directory; it imports ``src/tractorlab`` of the tree it sits
in, and pytest does not collect it)::

    python tests/report_digest.py                  # one line per report
    python tests/report_digest.py --keep reports/  # also keep the reports

Each report is the document ``tractorlab verify --checks all --geometry G
--dim D --seed S`` writes, produced through the same command line entry
point, for the 8 catalog (geometry, dim) pairs at seeds 0-2.  Two trees
whose lines agree produce byte-identical reports; with ``--keep`` the
reports are written as ``G-D-sS.json`` so that differing ones can be
diffed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tractorlab.cli import main as cli_main  # noqa: E402

CATALOG = (
    ("klein", 3), ("klein", 4), ("klein", 5), ("af2_generic", 4),
    ("af2_generic", 5), ("af1_generic", 4), ("flat", 3), ("poincare_control", 3),
)
SEEDS = (0, 1, 2)


def report(name: str, dim: int, seed: int, out: Path) -> bytes:
    """The bytes of one full-suite JSON report, written to ``out``."""
    argv = ["verify", "--geometry", name, "--dim", str(dim), "--seed", str(seed),
            "--checks", "all", "--format", "json", "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        cli_main(argv)  # exits 1 when a check fails or errors; the report stands
    return out.read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", default=None, help="directory to keep the reports in")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        where = Path(args.keep or scratch)
        where.mkdir(parents=True, exist_ok=True)
        for name, dim in CATALOG:
            for seed in SEEDS:
                label = f"{name}-{dim}-s{seed}"
                data = report(name, dim, seed, where / f"{label}.json")
                print(f"{hashlib.sha1(data).hexdigest()}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
