"""Exact integer lattice routines: Hermite normal form, kernels,
congruence preimages, and membership tests.

Vectors are rows; a lattice is the row span of a matrix.  The HNF used
here is canonical: rows ordered by pivot column, pivots positive, entries
above each pivot reduced into [0, pivot).  Lattice equality is therefore
matrix equality, and membership is a greedy echelon solve.  Kernels over
Z are found by HNF, whose intermediate entries can grow large; preimages
modulo a prime p are built by row reduction mod p instead, so no entry
ever exceeds p.  Everything is plain Python ints, so norms-of-norms sized
entries are exact.
"""

from __future__ import annotations

from .lattice import check_prime_or_zero


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


def in_row_span(basis: list[list[int]], vec) -> bool:
    """Is vec an integer combination of the (HNF) basis rows?"""
    v = list(vec)
    for row in basis:
        c = next((j for j, e in enumerate(row) if e), None)
        if c is None:
            continue
        q, rem = divmod(v[c], row[c])
        if rem:
            return False
        if q:
            v = [p - q * t for p, t in zip(v, row)]
    return not any(v)


def is_sublattice(inner: list[list[int]], outer: list[list[int]]) -> bool:
    """Does every row of ``inner`` lie in the span of ``outer``?"""
    return all(in_row_span(outer, row) for row in inner)


def kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """HNF basis of {x in Z^ncols : rows . x = 0 for every condition row}."""
    # Rows whose leading entries fall in every column contain a triangular
    # submatrix with a nonzero diagonal, so only x = 0 solves them.
    leads = {next((j for j, a in enumerate(r) if a), None) for r in rows}
    if leads >= set(range(ncols)):
        return []
    nconds = len(rows)
    # Row-reduce [A^T | I]; rows whose A^T block vanishes record the
    # unimodular combinations of coordinates killing every condition.
    aug = [
        [rows[cond][j] for cond in range(nconds)]
        + [int(t == j) for t in range(ncols)]
        for j in range(ncols)
    ]
    # The rows with a zero A^T block come last in the HNF, with their
    # pivots right of column nconds and every entry above a pivot reduced,
    # so their coordinate blocks are already the kernel's canonical HNF.
    return [row[nconds:] for row in hnf(aug) if not any(row[:nconds])]


def _eliminate(row: list[int], pivot_row: list[int], col: int, p: int) -> list[int]:
    """Clear ``row`` at ``col`` mod p with a pivot row holding 1 there."""
    f = row[col]
    return [(a - f * b) % p for a, b in zip(row, pivot_row)] if f else row


def preimage_mod(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """HNF basis of {x in Z^ncols : rows . x = 0 mod p} (exactly 0 if p = 0).

    p must be zero or a prime.  For a prime the lattice contains p Z^ncols,
    so its HNF is read off a row reduction over F_p.  Eliminating from the
    last column leftwards leaves every reduced row zero right of its
    pivot.  The null space vector of a free column j then has a 1 at j,
    zeros at the other free columns, and its other entries only at pivot
    columns right of j: these vectors are the reduced echelon basis of
    the null space mod p.  Together with p e_j at each pivot column they
    are the canonical HNF, with every entry in [0, p].
    """
    if check_prime_or_zero(p) == 0:
        return kernel(rows, ncols)
    rest = [[a % p for a in row] for row in rows]
    pivots: dict[int, list[int]] = {}
    for col in range(ncols - 1, -1, -1):
        i = next((i for i, r in enumerate(rest) if r[col]), None)
        if i is None:
            continue
        row = rest.pop(i)
        inv = pow(row[col], -1, p)
        row = [a * inv % p for a in row]
        rest = [_eliminate(r, row, col, p) for r in rest]
        for c in pivots:
            pivots[c] = _eliminate(pivots[c], row, col, p)
        pivots[col] = row
    return [
        [p if t == j else 0 for t in range(ncols)]
        if j in pivots
        else [-pivots[t][j] % p if t in pivots else int(t == j) for t in range(ncols)]
        for j in range(ncols)
    ]
