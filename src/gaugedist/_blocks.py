"""Row-blocked evaluation shared by the transform, gauge and atom-sum kernels,
and the sorted distinct values of an array."""

from __future__ import annotations

from concurrent import futures

import numpy as np

# rows x width entries per block: a 2 MiB float64 buffer.  Decay scans of the
# 256-gon and the l4 ball ran alike from 2^17 to 2^20 entries and slower from
# 2^22 up, where one block holds a whole R = 128 circle and a pool of two
# threads has nothing to share.
_BLOCK_ENTRIES = 1 << 18


def _concatenate(parts) -> np.ndarray:
    return np.concatenate(list(parts))


def map_blocks(fn, rows, width: int, threads: int = 1, reduce=_concatenate):
    """reduce(parts), where parts iterates over fn(block) for consecutive
    blocks of ``rows`` in order; the default reduce concatenates them.

    A block holds max(1, _BLOCK_ENTRIES // width) rows, where ``width`` is
    the number of entries one row costs.  The boundaries depend on
    len(rows) and width only, never on ``threads``, so the result is
    bit-identical for any thread count.  With threads > 1 and more than one
    block, the blocks run on one thread pool; numpy releases the GIL inside
    its kernels.  Either way parts hands the results over one by one, so a
    reduce that folds them as they come needs few at a time.  Empty
    ``rows`` make one empty block.
    """
    step = max(1, _BLOCK_ENTRIES // width)
    blocks = [rows[a:a + step] for a in range(0, len(rows) or 1, step)]
    if threads > 1 and len(blocks) > 1:
        with futures.ThreadPoolExecutor(max_workers=min(threads, len(blocks))) as ex:
            return reduce(ex.map(fn, blocks))
    return reduce(map(fn, blocks))


def distinct(a) -> np.ndarray:
    """The sorted distinct entries of ``a``, flattened, as np.unique(a); the
    first np.unique call without return_counts imports numpy.ma (25-40 ms)."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]
