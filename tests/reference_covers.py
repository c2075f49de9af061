"""The cover step :func:`gridorbits.orbit_poset._covers` is tested against:
one dense path-count product of the strict order with itself."""

import numpy as np


def reference_covers(less):
    """Pairs i < j with no k between them, read off less @ less: path counts
    are bounded by the node count << 2^24, so the float32 product is exact."""
    two_step = (less.astype(np.float32) @ less.astype(np.float32)) > 0
    return less & ~two_step
