"""Gauss-Jordan elimination over Exact scalars, one Exact operation per
entry: the reference the tests hold the fraction-free matrices.row_reduce
against."""

from typing import Sequence

from ptsphere.exact import Exact


def row_reduce(
    rows: Sequence[Sequence[Exact]], ncols: int
) -> tuple[list[list[Exact]], list[int]]:
    """Gauss-Jordan elimination on the first ncols columns, exactly.

    Returns (rows, pivot_cols): the rows in reduced row-echelon form, each
    pivot scaled to a leading 1 and its column cleared in every other row,
    and the pivot columns in order.  Columns past ncols are carried along,
    as the right-hand sides of an augmented system.
    """
    a = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if not a[r][c].is_zero()), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = a[top][c].inverse()
        a[top] = [x * inv for x in a[top]]
        for r in range(len(a)):
            if r != top and not a[r][c].is_zero():
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[top])]
        pivots.append(c)
    return a, pivots
