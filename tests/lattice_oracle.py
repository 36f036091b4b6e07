"""The mark-condition route to an ideal level, kept as the test oracle of
``ideals.kernel_lattice``: the mark matrix written down entry by entry,
the integer kernel of a condition matrix by the HNF of [A^T | I], whose
intermediate entries grow, and the preimage of a congruence mod a prime
by row reduction over F_p.
"""

from __future__ import annotations

from functools import lru_cache

from tambara.intlattice import hnf
from tambara.lattice import check_prime_or_zero, divisors


@lru_cache(maxsize=None)
def mark_table(h: int) -> tuple[tuple[int, ...], ...]:
    """The mark matrix of A(C_h) over the ascending divisors of h: row i,
    column k holds the mark at C_i of the orbit C_h/C_k, which is h/k
    where i | k and 0 elsewhere."""
    divs = divisors(h)
    return tuple(tuple(h // k if k % i == 0 else 0 for k in divs) for i in divs)


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
