#!/usr/bin/env python3
"""Exits 1 when a header under src/ has no includer on a product path.

A product path is any source under src/, bench/, examples/ or benchmark/.
Tests do not count, nor does the header itself or its own .cpp, so a module
that only its tests reach is listed. Usage: python3 ci/check_orphan_headers.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PRODUCT_DIRS = ("src", "bench", "examples", "benchmark")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def resolve(includer, name):
    """The file that `#include "name"` in `includer` names, or None."""
    for base in (includer.parent, ROOT / "src"):
        if (base / name).is_file():
            return (base / name).resolve()
    return None


reached = set()
for directory in PRODUCT_DIRS:
    for source in (ROOT / directory).rglob("*.[ch]pp"):
        for name in INCLUDE.findall(source.read_text(errors="replace")):
            target = resolve(source, name)
            if target and source.resolve() not in (target, target.with_suffix(".cpp")):
                reached.add(target)

orphans = [h for h in sorted((ROOT / "src").rglob("*.hpp")) if h.resolve() not in reached]
for header in orphans:
    print(f"orphan header: {header.relative_to(ROOT)} (no includer under "
          f"{', '.join(d + '/' for d in PRODUCT_DIRS)})")
print(f"{len(orphans)} orphan header(s)")
sys.exit(1 if orphans else 0)
