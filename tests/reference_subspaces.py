"""The span test :func:`gridorbits.subspaces.in_span` is checked against:
reduce the vector against the RREF rows one row at a time, each row's pivot
found by a scan, and test the remainder for zero."""


def reference_in_span(field, rows, vec):
    """Whether vec lies in the span of the RREF rows, by elimination."""
    v = list(vec)
    for row in rows:
        p = next(i for i, x in enumerate(row) if x)
        c = v[p]
        if c:
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return all(x == 0 for x in v)
