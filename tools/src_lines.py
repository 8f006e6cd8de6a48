#!/usr/bin/env python
"""Count the Python source lines under ``src/``, total and per package.

ROADMAP tracks this number: a change that keeps behaviour and shrinks it
is a win.  A line is a newline character, exactly as ``wc -l`` counts,
summed over every ``*.py`` file below the root (other files are skipped).
Each file is attributed to its top-level subpackage, ``repro.<package>``;
modules directly inside ``repro/`` count as ``repro``::

    python tools/src_lines.py              # the repository's src/
    python tools/src_lines.py --root DIR   # any other source tree

The table goes first; the last stdout line is the JSON summary
``{"root": ..., "total": N, "packages": {"repro": n, ...}}``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parents[1]


def count_lines(root: Path) -> Dict[str, int]:
    """Lines per package (``repro.sim``) of every ``*.py`` file below
    ``root``, sorted by package name."""
    packages: Dict[str, int] = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).parts
        package = ".".join(parts[:2]) if len(parts) > 2 \
            else parts[0] if len(parts) == 2 else path.stem
        lines = path.read_bytes().count(b"\n")
        packages[package] = packages.get(package, 0) + lines
    return dict(sorted(packages.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT / "src",
                        help="source tree to count (default: src/)")
    args = parser.parse_args(argv)
    if not args.root.is_dir():
        parser.error(f"not a directory: {args.root}")
    packages = count_lines(args.root)
    total = sum(packages.values())
    width = max([len("total"), *map(len, packages)])
    for package, lines in packages.items():
        print(f"{package:<{width}}  {lines:>7,}")
    print(f"{'total':<{width}}  {total:>7,}")
    print(json.dumps({"root": str(args.root), "total": total,
                      "packages": packages}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
