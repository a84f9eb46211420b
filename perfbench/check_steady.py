"""The benchmark's steadiness check.

Runs each workload twice at a reduced size (``workloads.SMALL_SIZE``, the
minimum number of units, no time budget) and requires what must not depend
on timing to be identical across the two runs: state bytes, state sha256,
member verdict counts, the check_group_axioms entry count, verify's
counterexamples and the failed share.  It also requires both runs to be
correct.  Exits 1 on any difference.

    python3 perfbench/check_steady.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    problems = []
    for name, run in workloads.WORKLOADS.items():
        size = workloads.SMALL_SIZE[name]
        first, second = (run(ROOT, SEED, 0, size) for _ in range(2))
        for label, res in (("first", first), ("second", second)):
            if not res.gate.correct:
                problems.append(f"{name}: {label} run incorrect: {res.gate.wrong[:3]}")
        differing = sorted(k for k in first.facts if first.facts[k] != second.facts.get(k))
        if differing:
            problems.append(f"{name}: differs between runs in {differing}")
        print(f"{name:<14} {'differs' if differing else 'identical'}: {first.facts}")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
