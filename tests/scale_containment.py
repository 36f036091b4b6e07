"""Symbolic vs. semantic containment at sizes past the tier-1 suite.

For each n given, every ordered pair of canonical spectrum points over
the default primes is decided twice, by ``contains`` (the decision table)
and by ``contains_semantic`` (the exact kernel lattices at every level).
Run from the repository root; pytest does not collect this module:

    PYTHONPATH=src python -m tests.scale_containment 360 720

One line per n gives the points, the pairs and the time taken; a
mismatch is printed and makes the exit code 1.
"""

from __future__ import annotations

import sys
import time

from tambara.lattice import CyclicGroupCtx
from tambara.spectrum import contains, contains_semantic, default_primes, enumerate_spectrum


def mismatches(points) -> list[tuple[str, str]]:
    """The ordered pairs of the points on which the two routes disagree."""
    return [
        (a.label, b.label)
        for a in points
        for b in points
        if contains(a, b) != contains_semantic(a, b)
    ]


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python -m tests.scale_containment N [N ...]", file=sys.stderr)
        return 2
    failed = False
    for n in map(int, argv):
        start = time.perf_counter()
        points = enumerate_spectrum(CyclicGroupCtx(n), default_primes(n)).points
        bad = mismatches(points)
        elapsed = time.perf_counter() - start
        print(
            f"n = {n}: {len(points)} points, {len(points) ** 2} ordered pairs, "
            f"{len(bad)} mismatches, {elapsed:.1f} s"
        )
        for a, b in bad:
            print(f"  contains({a}, {b}) disagrees with contains_semantic")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
