"""Compare two full benchmark reports written with ``run.py --out``.

    python3 perfbench/compare.py OLD.json NEW.json

Prints each metric the two reports share with the ratio new/old.  Reports
from hosts with different fingerprints (cores, Python, NumPy, start
method) or of different workloads are refused with exit status 2: their
numbers do not measure the same thing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


class NotComparable(ValueError):
    """The two reports were measured under different conditions."""


def compare(old: dict, new: dict) -> list[tuple[str, str, float, float, float]]:
    """(name, unit, old, new, new/old) per shared metric; raises if not comparable."""
    if old["fingerprint"] != new["fingerprint"]:
        raise NotComparable(f"host fingerprints differ: {old['fingerprint']} vs {new['fingerprint']}")
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        raise NotComparable("the reports are of different workloads or run kinds")
    rows = []
    for name in sorted(set(old["metrics"]) & set(new["metrics"])):
        a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
        rows.append((name, new["metrics"][name]["unit"], a, b, b / a if a else float("nan")))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    try:
        rows = compare(old, new)
    except NotComparable as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for name, unit, a, b, ratio in rows:
        print(f"{name:48s} {a:14.6g} {b:14.6g} {unit:8s} new/old {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
