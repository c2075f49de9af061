"""The decomposition path :func:`gridorbits.matchings_to_decomposition` is
tested against: every height tested against the left matching's values,
each chain walked from its start, and the height vectors sorted into
summands."""

from gridorbits import Decomposition


def decomposition_from_heights(shape, heights):
    """The :class:`Decomposition` of these height vectors, sorted; a repeat
    stays a repeat, so a decomposition that is not full stays invalid."""
    return Decomposition(shape, tuple(sorted(map(tuple, heights))))


def reference_matchings_to_decomposition(shape, matchings):
    """Chain per-pair height matchings into a full decomposition: heights
    with no left partner start a summand, and right partners extend it."""
    size = shape.size
    heights = []
    for start_col in range(1, shape.n + 1):
        for h0 in range(1, size + 1):
            if start_col > 1 and h0 in matchings[start_col - 2].values():
                continue
            chain = [h0]
            col = start_col
            while col <= shape.n - 1 and chain[-1] in matchings[col - 1]:
                chain.append(matchings[col - 1][chain[-1]])
                col += 1
            h = [0] * shape.n
            h[start_col - 1:start_col - 1 + len(chain)] = chain
            heights.append(tuple(h))
    return decomposition_from_heights(shape, heights)


def reference_is_thin(shape, h):
    """Whether ``h`` is the height vector of a thin summand: n heights in
    0..n+1 whose support is a nonempty column interval on which they
    weakly increase (a vector like (2,0,3) splits as a direct sum of its
    column blocks)."""
    h = tuple(h)
    if len(h) != shape.n or any(v < 0 or v > shape.size for v in h):
        return False
    support = [j for j, v in enumerate(h) if v > 0]
    if not support or support != list(range(support[0], support[-1] + 1)):
        return False
    seg = h[support[0]:support[-1] + 1]
    return all(x <= y for x, y in zip(seg, seg[1:]))


def reference_is_full(dec):
    """Whether ``dec`` is a full decomposition: every summand thin, and
    every column seeing heights 1..n+1 exactly once."""
    shape = dec.shape
    if not all(reference_is_thin(shape, h) for h in dec.summands):
        return False
    expected = list(range(1, shape.size + 1))
    return all(
        sorted(h[j] for h in dec.summands if h[j] > 0) == expected for j in range(shape.n)
    )
