"""The reconstruction :func:`gridorbits.parametrizations.reconstruct` is
tested against: the single-map pivots placed in a Fraction point, whose
window products are multiplied and reduced by :func:`sw_array` and compared
with the candidate entry by entry."""

from gridorbits import QQ, Matrix, InvalidTable, ReconstructInvalid, make_point, sw_array, windows
from gridorbits.parametrizations import table_entry


def reference_pivots(table):
    """Cells whose double difference is 1; InvalidTable when one is not 0
    or 1.  Pivots that share a row or column are returned as they are."""
    size = len(table)
    out = set()
    for p in range(1, size + 1):
        for q in range(1, size + 1):
            d = (
                table_entry(table, p, q)
                - table_entry(table, p + 1, q)
                - table_entry(table, p, q - 1)
                + table_entry(table, p + 1, q - 1)
            )
            if d not in (0, 1):
                raise InvalidTable(f"double difference at ({p},{q}) is {d}")
            if d == 1:
                out.add((p, q))
    return out


def reference_reconstruct(s):
    """The point with a 1 at each single-map pivot, accepted when its own
    south-west array equals ``s``; ReconstructInvalid names the first
    differing entry."""
    shape = s.shape
    size = shape.size
    mats = []
    for j in range(1, shape.num_maps + 1):
        rows = [[QQ.zero] * size for _ in range(size)]
        for (p, q) in reference_pivots(s.table(j, j)):
            rows[p - 1][q - 1] = QQ.one
        mats.append(Matrix(QQ, rows))
    point = make_point(shape, mats)
    realised = sw_array(point)
    for w, got_t, want_t in zip(windows(shape), realised.tables, s.tables):
        for p, (got_row, want_row) in enumerate(zip(got_t, want_t), start=1):
            for off, (got, want) in enumerate(zip(got_row, want_row)):
                if got != want:
                    raise ReconstructInvalid(w, (p, p + off), want, got)
    return point
