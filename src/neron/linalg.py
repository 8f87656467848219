"""Sparse exact linear algebra over Q.  Callers pass dense row lists; inside,
a row is a dict {column: Fraction} of its nonzero entries, so zeros are
never converted, multiplied or stored."""

from __future__ import annotations

from fractions import Fraction


def _sparse(row):
    return {c: Fraction(x) for c, x in enumerate(row) if x}


def _normalise(row, c):
    inv = 1 / row[c]
    for k in row:
        row[k] *= inv


def _subtract(row, f, pivot_row):
    """row -= f * pivot_row in place, dropping entries that cancel."""
    for c, y in pivot_row.items():
        x = row.get(c, 0) - f * y
        if x:
            row[c] = x
        else:
            del row[c]


def _reduce(matrix, rhs, tracked):
    """Gauss-Jordan on [A | b | I]: (solution with free variables zero, [])
    or (None, the input rows combined into 0 = nonzero, when tracked).  The
    pivot of column c is the first remaining row, in current order, with an
    entry there; the solution does not depend on that rule, but which rows
    combine does."""
    width = len(matrix[0])
    rows = [_sparse([*row, b]) for row, b in zip(matrix, rhs)]
    if tracked:  # input row i carries a 1 in column width+1+i
        for i, aug in enumerate(rows):
            aug[width + 1 + i] = Fraction(1)
    pivots = []
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        _normalise(rows[r], c)
        for i, row in enumerate(rows):
            if i != r and c in row:
                _subtract(row, row[c], rows[r])
        pivots.append(c)
    for row in rows[len(pivots):]:  # zero below width
        if width in row:
            return None, [k - width - 1 for k in sorted(row) if k > width]
    x = [Fraction(0)] * width
    for row, c in zip(rows, pivots):
        x[c] = row.get(width, Fraction(0))
    return x, []


def solve(matrix, rhs):
    """One solution of A x = b with free variables set to zero, or None."""
    if not matrix:
        return [] if not any(rhs) else None
    return _reduce(matrix, rhs, False)[0]


def solve_tracked(matrix, rhs, labels):
    """("ok", a solution of A x = b) or ("inconsistent", the labels of the
    input rows that combine to 0 = 1)."""
    if not matrix:
        return ("ok", [])
    x, bad = _reduce(matrix, rhs, True)
    if x is None:
        return ("inconsistent", [labels[i] for i in bad])
    return ("ok", x)


def independent_rows(matrix, width):
    """Indices of a maximal independent subset, scanning in order: each row
    is reduced once against the kept rows, held in reduced echelon form."""
    kept = []
    basis = {}  # pivot column -> row with a 1 there, the others with 0
    for i, row in enumerate(matrix):
        row = _sparse(row[:width])
        for c, prow in basis.items():
            if c in row:
                _subtract(row, row[c], prow)
        if row:
            c = min(row)
            _normalise(row, c)
            for prow in basis.values():
                if c in prow:
                    _subtract(prow, prow[c], row)
            basis[c] = row
            kept.append(i)
    return kept
