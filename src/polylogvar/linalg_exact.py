"""Sparse exact linear algebra: rank over F_2 for the Arnol'd certificate,
and a reduced echelon form over Q for the test oracles.

``sparse_rank`` takes the reduction mod 2 of an integer matrix, each row the
list of columns where it is odd, and eliminates on Python-int bitsets; its
docstring says why the result bounds the rank over Q from below, and
``arnold._certify``'s why that is enough.

``sparse_rref`` eliminates over Q on rows that are dicts mapping column to
a nonzero Fraction, each row reduced at its largest column, so its support
moves strictly downward.  No certificate runs it: the tests use it as the
reference over Q, and the benchmark's tracer (``perfbench/tracer.py``)
wraps it by name.
"""


def sparse_rank(rows):
    """Rank over F_2 of the given rows, each a list of the distinct columns
    where an integer matrix is odd.

    This is a lower bound on the rank over Q of the integer matrix: an
    r x r minor that is odd is nonzero.  It can be smaller; the matrix
    [[1, 1], [1, -1]] has rank 1 over F_2 and 2 over Q.

    Each row becomes a Python-int bitset, reduced by XOR against the pivot
    rows keyed by their highest set bit (``bit_length``) until it is zero
    or has a new highest bit.
    """
    pivots = {}
    for row in rows:
        bits = sum(1 << c for c in row)
        while bits:
            lead = bits.bit_length()
            if lead not in pivots:
                pivots[lead] = bits
                break
            bits ^= pivots[lead]
    return len(pivots)


def _subtract(row, coef, prow, lead):
    """row -= coef * prow in place, over every column of prow but lead."""
    for c, v in prow.items():
        if c != lead:
            nv = row.get(c, 0) - coef * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)


def sparse_rref(rows):
    """Fully reduced echelon form over Q of the span of the given rows
    (dicts column -> nonzero Fraction).

    Returns a dict pivot_column -> row, each row with coefficient 1 on its
    pivot and support only on non-pivot columns otherwise.
    """
    pivots = {}  # leading column -> row normalized to 1 at its lead
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            prow = pivots.get(lead)
            if prow is None:
                pv = row[lead]
                pivots[lead] = {c: v / pv for c, v in row.items()}
                break
            _subtract(row, row.pop(lead), prow, lead)
    # tails only contain columns below the lead, so substituting in
    # ascending pivot order fully reduces everything in one pass
    for lead in sorted(pivots):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            _subtract(row, row.pop(c), pivots[c], c)
    return pivots
