"""Sparse exact linear algebra over Q.

Rows are dicts mapping column index to a nonzero Fraction.  Elimination is
echelon-by-leading-column: each row is reduced at its largest column, so the
support of a row under reduction moves strictly downward and never revisits
a column.  On the incidence-style matrices here (the boundary maps of poset
homology, and the 100 degree-3 relation multiples of the Arnol'd
certificate) that keeps fill-in and coefficient growth small.  The Arnol'd
algebra no longer eliminates its top-degree relation multiples: it
straightens to its nbc normal form, and ``sparse_rref`` serves only the test
oracle that cross-checks it.
"""

from fractions import Fraction


def _echelon(rows):
    pivots = {}  # leading column -> row normalized to 1 at its lead
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            prow = pivots.get(lead)
            if prow is None:
                pv = row[lead]
                if pv != 1:
                    row = {c: v / pv for c, v in row.items()}
                pivots[lead] = row
                break
            coef = row.pop(lead)
            for c2, v2 in prow.items():
                if c2 == lead:
                    continue
                nv = row.get(c2, Fraction(0)) - coef * v2
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)
    return pivots


def sparse_rank(rows):
    """Exact rank over Q of the span of the given sparse rows."""
    return len(_echelon(rows))


def sparse_rref(rows):
    """Fully reduced echelon form of the row span.

    Returns a dict pivot_column -> row, each row with coefficient 1 on its
    pivot and support only on non-pivot columns otherwise.
    """
    pivots = _echelon(rows)
    # tails only contain columns below the lead, so substituting in
    # ascending pivot order fully reduces everything in one pass
    for lead in sorted(pivots):
        row = pivots[lead]
        for c in [c for c in list(row) if c != lead and c in pivots]:
            coef = row.pop(c)
            for c2, v2 in pivots[c].items():
                if c2 == c:
                    continue
                nv = row.get(c2, Fraction(0)) - coef * v2
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)
    return pivots
