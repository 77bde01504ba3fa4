"""Report which systems' output digests differ between two result files.

Usage:

    python3 perfbench/compare.py .perfbench/A.json .perfbench/B.json

Result files are written by run.py under ``.perfbench/``.  A digest
covers each cell's reduced basis, its inequation factors and its
annotation.  Differences are informational: the exit code is 0 unless
a file cannot be read or the two runs decomposed different systems.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def digest_diff(a: dict, b: dict) -> list[str]:
    """Labels of the systems whose digests differ; the runs must share systems."""
    if a["labels"] != b["labels"]:
        raise ValueError("the two runs decomposed different systems (workload or seed differ)")
    return [label for label, da, db in zip(a["labels"], a["digests"], b["digests"]) if da != db]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        a, b = (json.loads(Path(path).read_text()) for path in argv)
        diff = digest_diff(a, b)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(a['labels'])} systems, {len(diff)} with differing digests")
    for label in diff:
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
