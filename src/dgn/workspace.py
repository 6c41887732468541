"""Scratch arrays reused across the calls of a training run.

``network`` documents which stage owns which key and how long an array
taken from a shared workspace stays valid.
"""

from __future__ import annotations

import numpy as np

# The two keys backward alternates its per-layer gradients in. The alignment
# stage (the EM fit and the losses) borrows them for its temporaries, which
# are dead before backward runs.
SCRATCH = ("grad0", "grad1")


class Workspace:
    """Scratch arrays reused across calls.

    Each key owns one flat float64 buffer that grows to the largest
    request seen; ``take`` returns a C-contiguous (rows, cols) view of its
    leading part, so batches of any size and width share it.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, key: str, rows: int, cols: int) -> np.ndarray:
        size = rows * cols
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
        return buf[:size].reshape(rows, cols)

    def zeros(self, key: str, rows: int, cols: int) -> np.ndarray:
        """``take``, filled with 0.0."""
        out = self.take(key, rows, cols)
        out.fill(0.0)
        return out
