"""Sparse exact linear algebra over Q, computed on integer rows.

Callers pass each row as a dict {column: value} of its entries, ints or
Fractions, and name the width: the number of unknowns, numbered from 0.  A
column that no row mentions is an unknown that is free, and a row may hold
zeros or be empty.  Inside, a row keeps only its nonzero entries, scaled
once by a positive rational to clear its denominators, so zeros are never
converted, multiplied or stored, and a Fraction is made only for a
solution entry that is not an integer.  Elimination is fraction-free: a
row loses its entry in column c as row <- a*row - b*pivot_row with a/b the
pivot entry over the row's entry in lowest terms, and is then divided by
its content (the gcd of its entries).  Each row stays a nonzero multiple
of the row rational Gauss-Jordan would hold, so supports, pivots,
solutions and inconsistency certificates are the same as with rows
normalised over Q.

`_reduce` keeps a column -> rows index and each row's position, so a pivot
search and a sweep visit only the rows with an entry in the column.  The
pivot rule is unchanged: the first remaining row, in current order.
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


def _reduce(matrix, rhs, width, tracked):
    """Gauss-Jordan on [A | b | I]: (solution with free variables zero, [])
    or (None, the input rows combined into 0 = nonzero, when tracked).  The
    pivot of column c is the first remaining row, in current order, with an
    entry there; the solution does not depend on that rule, but which rows
    combine does.  Column width holds b."""
    rows = [_sparse({**row, width: b}) for row, b in zip(matrix, rhs)]
    if tracked:  # input row i carries a 1 in column width+1+i
        for i, aug in enumerate(rows):
            aug[width + 1 + i] = 1
    holders = [set() for _ in range(width)]  # column -> ids of rows with it
    for i, row in enumerate(rows):
        for k in row:
            if k < width:
                holders[k].add(i)
    order = list(range(len(rows)))  # position -> row id
    pos = list(range(len(rows)))  # row id -> position
    pivots = []
    for c in range(width):
        r = len(pivots)
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
        pivots.append(c)
    for i in order[len(pivots):]:  # zero below width
        row = rows[i]
        if width in row:
            return None, [k - width - 1 for k in sorted(row) if k > width]
    x = [0] * width
    for i, c in zip(order, pivots):
        row = rows[i]
        x[c] = quotient(row.get(width, 0), row[c])
    return x, []


def solve(matrix, rhs, width):
    """One solution of A x = b in width unknowns, with free variables set
    to zero, or None.  Each row of A is a {column: value} dict."""
    if not matrix:
        return None if any(rhs) else [0] * width
    return _reduce(matrix, rhs, width, False)[0]


def solve_tracked(matrix, rhs, labels, width):
    """("ok", a solution of A x = b in width unknowns) or ("inconsistent",
    the labels of the input rows that combine to 0 = 1).  Each row of A is
    a {column: value} dict."""
    x, bad = _reduce(matrix, rhs, width, True)
    if x is None:
        return ("inconsistent", [labels[i] for i in bad])
    return ("ok", x)


def canonical_point(base, directions, width):
    """The point of base + span(directions) that is zero at every
    coordinate >= width and at every coordinate where a vector of the span
    has its last nonzero entry, as a dict of its nonzero coordinates, or
    None when no point of base + span is zero at every coordinate >= width.
    Vectors are {coordinate: value} dicts with coordinates >= 0.

    Read the coordinates >= width as the equations of a system in width
    unknowns whose solutions are the points zero there.  The span's
    vectors zero there are its kernel, and Gauss-Jordan leaves a column
    free exactly when a kernel vector has its last nonzero entry in it,
    whatever the pivot rule; so the point is the solution `solve` returns,
    with the free unknowns zero.  The span is put in echelon form by last
    entry, and base is reduced by it from the last coordinate down."""
    basis = {}  # last coordinate -> the vector of the span ending there
    for v in directions:
        v = _sparse(v)
        while v:
            last = max(v)
            prow = basis.get(last)
            if prow is None:
                basis[last] = v
                break
            _eliminate(v, last, prow)
    point = _sparse({**base, -1: 1})  # coordinate -1 carries the scale
    for last in sorted(basis, reverse=True):
        if last in point:
            _eliminate(point, last, basis[last])
    scale = point.pop(-1)
    if any(k >= width for k in point):
        return None
    return {k: quotient(x, scale) for k, x in point.items()}


def independent_rows(matrix, width):
    """Indices of a maximal independent subset of {column: value} rows,
    read in their first width columns, scanning in order: each row is
    reduced once against the kept rows, held in reduced echelon form."""
    kept = []
    basis = {}  # pivot column -> row with an entry there, the others with 0
    for i, row in enumerate(matrix):
        row = _sparse({c: x for c, x in row.items() if c < width})
        for c, prow in basis.items():
            if c in row:
                _eliminate(row, c, prow)
        if row:
            c = min(row)
            for prow in basis.values():
                if c in prow:
                    _eliminate(prow, c, row)
            basis[c] = row
            kept.append(i)
    return kept
