"""Dense matrices with polynomial entries, as lists of rows."""

from __future__ import annotations

from .errors import ShapeMismatch
from .ring import Poly, PolyRing


def mat_shape(a) -> tuple:
    if not a:
        return (0, 0)
    w = len(a[0])
    if any(len(row) != w for row in a):
        raise ShapeMismatch("ragged matrix")
    return (len(a), w)


def mat_id(ring: PolyRing, n: int):
    return [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]


def mat_zero(ring: PolyRing, n: int, m: int):
    return [[ring.zero() for _ in range(m)] for _ in range(n)]


def mat_mul(a, b):
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise ShapeMismatch(f"cannot multiply {n}x{k} by {k2}x{m}")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0].ring.zero()
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_transpose(a):
    n, m = mat_shape(a)
    return [[a[i][j] for i in range(n)] for j in range(m)]


def mat_det(a) -> Poly:
    """Determinant by minor expansion, memoized over column subsets."""
    n, m = mat_shape(a)
    if n != m:
        raise ShapeMismatch("determinant of a non-square matrix")
    if n == 0:
        raise ShapeMismatch("determinant of an empty matrix")
    ring = a[0][0].ring
    memo = {}

    def minor(row: int, cols: tuple) -> Poly:
        if len(cols) == 1:
            return a[row][cols[0]]
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = ring.zero()
        for pos, j in enumerate(cols):
            rest = cols[:pos] + cols[pos + 1:]
            term = a[row][j] * minor(row + 1, rest)
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def mat_minor(a, i: int, j: int):
    return [[a[r][c] for c in range(len(a)) if c != j] for r in range(len(a)) if r != i]


def mat_adjugate(a):
    n, m = mat_shape(a)
    if n != m:
        raise ShapeMismatch("adjugate of a non-square matrix")
    if n == 1:
        return [[a[0][0].ring.one()]]
    cof = [[mat_det(mat_minor(a, i, j)).scale(-1 if (i + j) % 2 else 1)
            for j in range(n)] for i in range(n)]
    return mat_transpose(cof)


def mat_in_ring(a, ring: PolyRing, rename=None):
    return [[x.in_ring(ring, rename) for x in row] for row in a]


def mat_block(rows):
    """Assemble a matrix from a grid of blocks."""
    out = []
    for strip in rows:
        heights = {mat_shape(b)[0] for b in strip}
        if len(heights) != 1:
            raise ShapeMismatch("block heights differ within a strip")
        h = heights.pop()
        for i in range(h):
            row = []
            for b in strip:
                row.extend(b[i])
            out.append(row)
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise ShapeMismatch("block widths differ between strips")
    return out
