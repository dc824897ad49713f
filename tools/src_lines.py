"""Report the net ``src/`` line count: working tree vs a git ref.

Counts newline-terminated lines (``wc -l`` semantics) over every
``src/**/*.py`` file, once in the working tree and once at ``--base``,
and prints both totals and their difference - the net figure every
change to this repository reports.  Informational only: it never fails
on the size of the delta.

Usage::

    python tools/src_lines.py                    # working tree only
    python tools/src_lines.py --base origin/main
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def working_tree_lines(root: Path = ROOT) -> int:
    """Lines of ``src/**/*.py`` as they are on disk."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src").rglob("*.py"))


def ref_lines(ref: str, root: Path = ROOT) -> int:
    """Lines of ``src/**/*.py`` in the tree of git ``ref``."""
    listing = subprocess.run(
        ["git", "ls-tree", "-r", "-z", ref, "--", "src"],
        cwd=root, check=True, capture_output=True).stdout
    blobs = []
    for entry in listing.split(b"\0"):
        if not entry:
            continue
        meta, path = entry.split(b"\t", 1)
        _mode, kind, sha = meta.split()
        if kind == b"blob" and path.endswith(b".py"):
            blobs.append(sha)
    if not blobs:
        return 0
    batch = subprocess.run(
        ["git", "cat-file", "--batch"], cwd=root, check=True,
        capture_output=True, input=b"\n".join(blobs) + b"\n").stdout
    total, pos = 0, 0
    for _ in blobs:
        header_end = batch.index(b"\n", pos)
        size = int(batch[pos:header_end].split()[2])
        start = header_end + 1
        total += batch[start:start + size].count(b"\n")
        pos = start + size + 1  # the blob is followed by one newline
    return total


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REF",
                        help="git ref to compare against (e.g. HEAD~1)")
    args = parser.parse_args(argv)
    current = working_tree_lines()
    print(f"src lines (working tree): {current}")
    if args.base:
        base = ref_lines(args.base)
        print(f"src lines ({args.base}): {base}")
        print(f"net change: {current - base:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
