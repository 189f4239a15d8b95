"""Self-test: the benchmark must not lean on names slated for removal.

The roadmap plans to delete the route-kernel knob, the deprecated
scheduler delegates and the parallel counters API.  A benchmark that
used any of them would break, or silently change what it measures, when
they go.  This scans the benchmark's own Python files (not this one) and
fails on any use.  ``run.py`` runs it before every measurement; run it
alone with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

PLANNED_REMOVALS = (
    "no_shards",
    "set_route_kernel",
    "route_kernel",
    "SPARCLE_ROUTE_KERNEL",
    "gr_paths",
    "be_paths",
    "gr_health",
    "be_health",
    "add_gr_path",
    "add_be_path",
)

#: ``repro.perf.counters`` in any spelling: dotted, or imported from ``repro.perf``.
COUNTERS = re.compile(r"repro\.perf\.counters|from\s+repro\.perf\s+import[^\n]*\bcounters\b")


def violations(root: Path = HERE) -> list[str]:
    found = []
    words = re.compile(r"\b(" + "|".join(PLANNED_REMOVALS) + r")\b")
    for path in sorted(root.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for match in words.finditer(line):
                found.append(f"{path.name}:{number}: uses {match.group(1)}")
            if COUNTERS.search(line):
                found.append(f"{path.name}:{number}: uses repro.perf.counters")
    return found


def main() -> int:
    found = violations()
    for line in found:
        print(line, file=sys.stderr)
    print("selftest:", "FAIL" if found else "ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
