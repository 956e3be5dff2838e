"""Compare two saved benchmark results, refusing mismatched boxes.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a record ``run.py`` saved under ``perfbench/out/``.  Two
results are comparable only when they were measured on the same box
(CPU count and model, platform, python and numpy versions, numpy
importable) for the same workload in the same mode; otherwise the
comparison is refused with exit status 2.  When both ran the same seed,
their work fingerprints (``work.*``) must also match — a change that
alters the protocol's work is reported and exits 1.  Otherwise every
metric is printed with its ratio new/base.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List


def refusal(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Why *base* and *new* must not be compared; empty when they may."""
    reasons = []
    a, b = base["fingerprint"], new["fingerprint"]
    for key in sorted(set(a["box"]) | set(b["box"])):
        if a["box"].get(key) != b["box"].get(key):
            reasons.append(f"box {key}: {a['box'].get(key)!r} vs "
                           f"{b['box'].get(key)!r}")
    if a["workload"] != b["workload"]:
        reasons.append(f"workload {a['workload']} vs {b['workload']}")
    if base["trace"] != new["trace"]:
        reasons.append("one result is traced, the other is not")
    return reasons


def work_changes(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Work counters that differ between two results of the same seed."""
    if base["fingerprint"]["seed"] != new["fingerprint"]["seed"]:
        return []
    return [f"{name}: {value} -> {new['metrics'].get(name)}"
            for name, value in sorted(base["metrics"].items())
            if name.startswith("work.")
            and new["metrics"].get(name) != value]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path, encoding="utf-8").read())
                 for path in argv)
    reasons = refusal(base, new)
    if reasons:
        print("refusing to compare results from different boxes or modes:",
              file=sys.stderr)
        for reason in reasons:
            print(f"  {reason}", file=sys.stderr)
        return 2
    for name in sorted(base["metrics"]):
        old, now = base["metrics"][name], new["metrics"].get(name)
        ratio = f"{now / old:.3f}" if now is not None and old else "-"
        print(f"{name:40s} {old:>14.6g} {now!s:>14.14} {ratio:>8}")
    changed = work_changes(base, new)
    for line in changed:
        print(f"WORK CHANGED {line}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
