#!/usr/bin/env python3
"""Fail when README's Knobs table names a knob the code no longer has.

    python3 tools/check_knobs.py [README.md]

Each row's first cell lists one or more backticked knobs: an option field
(`NeatsStoreOptions::shard_size`, `NeatsOptions::partition.kinds`), a flag
(`--workers`) or a build/env variable (`NEATS_SANITIZE`). Every identifier
in a field path and every flag or variable must still appear in src/,
tools/, bench/, examples/ or the top-level CMakeLists.txt.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ("src", "tools", "bench", "examples")


def corpus():
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in SOURCES:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files
                      if f.endswith((".hpp", ".cpp", ".h", ".py"))]
    return "\n".join(open(p, encoding="utf-8").read() for p in paths)


def main():
    readme = sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "README.md")
    text = open(readme, encoding="utf-8").read()
    table = text.split("## Knobs", 1)[1].split("\n## ", 1)[0]
    code = corpus()
    stale = []
    for row in table.splitlines():
        if not row.startswith("| `"):
            continue
        for knob in re.findall(r"`([^`]+)`", row.split("|")[1]):
            words = re.findall(r"--[\w-]+|\w+", knob)
            if not all(re.search(r"(?<![\w-])" + re.escape(w) + r"(?![\w-])", code)
                       for w in words):
                stale.append(knob)
    for knob in stale:
        print("%s: Knobs row names `%s`, which no source file has" % (readme, knob))
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
