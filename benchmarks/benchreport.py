"""Where a ``bench_*.py`` script's JSON report goes.

The ``BENCH_*.json`` files at the repository root hold full-run
figures. A ``--quick`` run measures a reduced grid, so without an
explicit ``--out`` it prints its report and writes no file.
"""

import json
import os

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def add_out_argument(parser, name):
    parser.add_argument(
        "--out", default=None,
        help=f"report path (default: {name} at the repository root; "
             f"with --quick, print the report and write no file)")


def save_report(payload, out, name, quick=False):
    """Print ``payload`` as JSON and write it to ``out`` (default:
    ``name`` at the repository root). Returns the path written, or
    ``None`` for a ``--quick`` run without ``--out``."""
    print(json.dumps(payload, indent=2))
    if out is None and quick:
        print(f"\n--quick: {name} not written (pass --out to keep "
              f"this report)")
        return None
    path = os.path.abspath(out or os.path.join(REPO_ROOT, name))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {path}")
    return path
