"""Regenerate the benchmark's committed input files from fanforge itself.

    python3 perfbench/make_data.py

Writes perfbench/data/connected_n8.g6 (every connected 8-vertex graph,
canonical form, sorted) and perfbench/data/class2_n7.g6 (the class-2
graphs among the connected graphs on at most 7 vertices). The inputs are
committed so that every commit is measured on the same bytes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fanforge.enumerate_graphs import (  # noqa: E402
    CONNECTED_COUNTS,
    augment_level,
    canonical_form,
    masks_to_graph6,
)
from fanforge.graphs import from_graph6  # noqa: E402
from fanforge.solver import chromatic_index  # noqa: E402


def main() -> int:
    level = [(0,)]
    small = [masks_to_graph6(canonical_form(level[0]))]
    for n in range(2, 9):
        level = augment_level(level)
        if len(level) != CONNECTED_COUNTS[n]:
            raise SystemExit(f"n={n}: {len(level)} graphs, expected {CONNECTED_COUNTS[n]}")
        lines = sorted(masks_to_graph6(canonical_form(g)) for g in level)
        if n <= 7:
            small.extend(lines)
    (HERE / "data" / "connected_n8.g6").write_text("\n".join(lines) + "\n")
    class2 = []
    for line in small:
        g = from_graph6(line)
        if g.edges and chromatic_index(g).cls == "two":
            class2.append(line)
    (HERE / "data" / "class2_n7.g6").write_text("\n".join(class2) + "\n")
    print(f"{len(lines)} graphs on 8 vertices, {len(class2)} class-2 graphs on <= 7")
    return 0


if __name__ == "__main__":
    sys.exit(main())
