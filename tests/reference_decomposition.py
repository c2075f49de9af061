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
