"""Sparse exact linear algebra over Q, computed on integer rows.

Vectors are dicts {coordinate: value} of ints or Fractions, with
coordinates >= 0; a coordinate a vector does not mention is zero.  Three
questions are answered.  `solve_tracked` names the equations of a system
in width unknowns that contradict each other, or finds that there are
none; an unknown that no row mentions is free.  `canonical_point` picks
one point of an affine subspace, and `independent_rows` keeps the rows
that enlarge the span of the ones before.  Inside, a vector keeps only its
nonzero entries, scaled once by a positive rational to clear its
denominators, so zeros are never converted, multiplied or stored, and a
Fraction is made only for a coordinate of a point that is not an integer.
Elimination is fraction-free: a vector loses its entry at coordinate c as
v <- a*v - b*pivot with a/b the pivot's entry over v's in lowest terms,
and is then divided by its content (the gcd of its entries).  Each vector
stays a nonzero multiple of the one rational elimination would hold, so
supports, pivots, points and contradictions are the same as over Q.

`_reduce` keeps a column -> rows index and each row's position, so a pivot
search and a sweep visit only the rows with an entry in the column.  Its
pivot rule is the first remaining row, in current order, which decides the
rows that combine.  The other two questions do not depend on pivots, and
share `_echelon`.
"""

from __future__ import annotations

from math import gcd, lcm

from .ring import quotient


def _sparse(row):
    """The nonzero entries of a {column: value} row, as coprime integers,
    in a new dict."""
    row = {c: x for c, x in row.items() if x}
    den = lcm(*(x.denominator for x in row.values()))
    for c, x in row.items():
        row[c] = x.numerator * (den // x.denominator)
    _divide_content(row)
    return row


def _divide_content(row):
    g = gcd(*row.values())
    if g > 1:
        for c, x in row.items():
            row[c] = x // g


def _eliminate(row, c, pivot_row):
    """row <- a*row - b*pivot_row in place, clearing column c; entries that
    cancel are dropped and the row is divided by its content."""
    a, b = pivot_row[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k, x in row.items():
            row[k] = a * x
    for k, y in pivot_row.items():
        x = row.get(k, 0) - b * y
        if x:
            row[k] = x
        else:
            del row[k]
    if row:
        _divide_content(row)


def _reduce(matrix, rhs, width):
    """Gauss-Jordan on [A | b | I]: the indices of the input rows combined
    into 0 = nonzero, or None when A x = b is consistent.  The pivot of
    column c is the first remaining row, in current order, with an entry
    there; which rows combine depends on that rule.  Column width holds b."""
    rows = [_sparse({**row, width: b}) for row, b in zip(matrix, rhs)]
    for i, aug in enumerate(rows):  # input row i carries a 1 in column width+1+i
        aug[width + 1 + i] = 1
    holders = [set() for _ in range(width)]  # column -> ids of rows with it
    for i, row in enumerate(rows):
        for k in row:
            if k < width:
                holders[k].add(i)
    order = list(range(len(rows)))  # position -> row id
    pos = list(range(len(rows)))  # row id -> position
    r = 0  # pivots so far
    for c in range(width):
        if r == len(rows):
            break
        pivot = min((i for i in holders[c] if pos[i] >= r),
                    key=pos.__getitem__, default=None)
        if pivot is None:
            continue
        other = order[r]
        order[r], order[pos[pivot]] = pivot, other
        pos[other], pos[pivot] = pos[pivot], r
        prow = rows[pivot]
        later = [k for k in prow if c < k < width]
        for i in holders[c]:
            if i != pivot:
                row = rows[i]
                _eliminate(row, c, prow)
                for k in later:  # where an entry appeared or cancelled
                    if k in row:
                        holders[k].add(i)
                    else:
                        holders[k].discard(i)
        r += 1
    for i in order[r:]:  # zero below width
        row = rows[i]
        if width in row:
            return [k - width - 1 for k in sorted(row) if k > width]
    return None


def solve_tracked(matrix, rhs, labels, width):
    """The labels of the rows of A x = b, in width unknowns, that
    Gauss-Jordan combines into 0 = 1, or None when the system is
    consistent.  Each row of A is a {column: value} dict."""
    bad = _reduce(matrix, rhs, width)
    return None if bad is None else [labels[i] for i in bad]


def _echelon(vectors):
    """The span of vectors in echelon form, as {last coordinate: the vector
    of the span ending there}, and the indices of the vectors that enlarged
    it: each vector is reduced against the basis from its last coordinate
    down, and kept when something is left."""
    basis, grew = {}, []
    for i, v in enumerate(vectors):
        v = _sparse(v)
        while v:
            last = max(v)
            prow = basis.get(last)
            if prow is None:
                basis[last] = v
                grew.append(i)
                break
            _eliminate(v, last, prow)
    return basis, grew


def canonical_point(base, directions, width):
    """The point of base + span(directions) that is zero at every
    coordinate >= width and at every coordinate where a vector of the span
    has its last nonzero entry, as a dict of its nonzero coordinates, or
    None when no point of base + span is zero at every coordinate >= width.

    Read the coordinates >= width as the equations of a system in width
    unknowns whose solutions are the points zero there.  The span's
    vectors zero there are its kernel, and Gauss-Jordan leaves a column
    free exactly when a kernel vector has its last nonzero entry in it,
    whatever the pivot rule; so the point is the solution Gauss-Jordan
    gives with the free unknowns zero, and the only solution when the
    directions are independent in their coordinates >= width.  Base is
    reduced by the echelon basis from the last coordinate down."""
    basis = _echelon(directions)[0]
    point = _sparse({**base, -1: 1})  # coordinate -1 carries the scale
    for last in sorted(basis, reverse=True):
        if last in point:
            _eliminate(point, last, basis[last])
    scale = point.pop(-1)
    if any(k >= width for k in point):
        return None
    return {k: quotient(x, scale) for k, x in point.items()}


def independent_rows(matrix):
    """Indices of the rows that the rows before them do not span, a
    maximal independent subset."""
    return _echelon(matrix)[1]
