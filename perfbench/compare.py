#!/usr/bin/env python3
"""Compare two run records written by run.py (for example, the same
workload and seed on two commits).

Usage: python3 perfbench/compare.py OLD_RECORD.json NEW_RECORD.json

Prints every metric present in both records with its relative change, and
every op whose output digest changed, appeared or disappeared.  Digest
changes are reported, not judged: a change of output form can be
intended, and byte identity of the worked examples is guarded by the tests.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    old, new = (json.load(open(path)) for path in argv)
    for key in ("workload", "seed", "smoke"):
        if old.get(key) != new.get(key):
            print(f"warning: records differ in {key}: {old.get(key)!r} vs {new.get(key)!r}")
    print(f"commit {old['environment']['commit']} -> {new['environment']['commit']}")
    for name in sorted(set(old["metrics"]) & set(new["metrics"])):
        a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{name:36s} {a:14.6g} {b:14.6g} {change:>8s} {new['metrics'][name]['unit']}")
    od, nd = old["digests"], new["digests"]
    changed = [k for k in od if k in nd and od[k] != nd[k]]
    for label in changed:
        print(f"digest changed: {label}")
    for label in sorted(set(nd) - set(od)):
        print(f"digest added:   {label}")
    for label in sorted(set(od) - set(nd)):
        print(f"digest removed: {label}")
    if not changed and set(od) == set(nd):
        print(f"all {len(nd)} output digests identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
