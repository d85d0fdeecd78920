"""Print a sha1 of each full-suite JSON report of the check catalog, or of
the benchmark's one-shot evaluations.

Usage (from any directory; it imports ``src/tractorlab`` of the tree it sits
in, and pytest does not collect it)::

    python tests/report_digest.py                  # one line per report
    python tests/report_digest.py --keep reports/  # also keep the reports
    python tests/report_digest.py --evals          # one line per eval seed

Each report is the document ``tractorlab verify --checks all --geometry G
--dim D --seed S`` writes, produced through the same command line entry
point, for the 8 catalog (geometry, dim) pairs at seeds 0-2.  Two trees
whose lines agree produce byte-identical reports; with ``--keep`` the
reports are written as ``G-D-sS.json`` so that differing ones can be
diffed.

With ``--evals`` each line digests the 135 ``tractorlab eval`` calls of the
benchmark's ``eval-cold`` workload at one seed (0-2): the exit code and the
standard output of every call, in order.  The calls come from
``perfbench/workloads.py``, imported without being changed; the temporary
directory that holds their geometry document is replaced by a fixed name in
the text that is digested, so two trees agree whatever directory each ran
in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

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


def eval_digest(seed: int) -> str:
    """The sha1 of the exit codes and standard outputs of the ``eval-cold``
    calls at ``seed``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    digest = hashlib.sha1()
    with tempfile.TemporaryDirectory() as scratch:
        workload = workloads.EvalColdWorkload(seed, Path(scratch))
        for *_, argv in workload.calls:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli_main(argv)
            except SystemExit as exc:
                rc = exc.code
            text = f"{rc}\n{out.getvalue()}".replace(scratch, "<workdir>")
            digest.update(text.encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", default=None, help="directory to keep the reports in")
    parser.add_argument("--evals", action="store_true",
                        help="digest the benchmark's one-shot evals instead")
    args = parser.parse_args(argv)
    if args.evals:
        for seed in SEEDS:
            print(f"{eval_digest(seed)}  eval-cold-s{seed}", flush=True)
        return 0
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
