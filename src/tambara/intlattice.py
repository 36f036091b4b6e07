"""Exact integer lattice routines: Hermite normal form and membership.

Vectors are rows; a lattice is the row span of a matrix.  The HNF used
here is canonical: rows ordered by pivot column, pivots positive, entries
above each pivot reduced into [0, pivot).  Lattice equality is therefore
matrix equality, and membership is a greedy echelon solve.  Everything
is plain Python ints, so norms-of-norms sized entries are exact.  No
kernel solver is needed here: ``ideals.kernel_lattice`` writes each
ideal level's HNF down cell by cell.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, count
from operator import sub


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row-style Hermite normal form of the span of ``rows``."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if not m[i][col]:
                continue
            a, b = m[r][col], m[i][col]
            g, x, y = xgcd(a, b)
            u, v = -(b // g), a // g
            m[r], m[i] = (
                [x * p + y * q for p, q in zip(m[r], m[i])],
                [u * p + v * q for p, q in zip(m[r], m[i])],
            )
        if m[r][col] < 0:
            m[r] = [-p for p in m[r]]
        for i in range(r):
            q = m[i][col] // m[r][col]
            if q:
                m[i] = [p - q * t for p, t in zip(m[i], m[r])]
        r += 1
    return m[:r]


def in_row_span(basis: Sequence[Sequence[int]], vec) -> bool:
    """Is vec an integer combination of the (HNF) basis rows?  Each row's
    pivot search and each reduction of vec run in C, with no bytecode
    step per entry."""
    v = list(vec)
    for row in basis:
        c = next(compress(count(), row), None)
        if c is None:
            continue
        q, rem = divmod(v[c], row[c])
        if rem:
            return False
        if q:
            v = list(map(sub, v, map(q.__mul__, row)))
    return not any(v)
