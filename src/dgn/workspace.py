"""Scratch arrays reused across the calls of a training run.

``network`` documents which stage owns which key and how long an array
taken from a shared workspace stays valid.
"""

from __future__ import annotations

import numpy as np

# The two keys the loss/alignment stage (the TCE gradient, the EM fit and the
# alignment losses) borrows for its temporaries, which are dead before
# ``network.backward`` runs.
SCRATCH = ("scratch0", "scratch1")


class Workspace:
    """Scratch arrays reused across calls.

    Each key owns one flat float64 buffer. Every ``take`` is point-major:
    ``rows`` counts points. A key's buffer holds at least ``points`` rows at
    the width of each take, so on a workspace built for the largest scene
    of a run a buffer is replaced only by a wider take, never by a larger
    scene;
    ``take`` returns a C-contiguous (rows, cols) view of its leading part,
    so batches of any size and width share it. ``Workspace()`` grows each
    buffer to the largest request seen.
    """

    def __init__(self, points: int = 0):
        self.points = points
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, key: str, rows: int, cols: int) -> np.ndarray:
        buf = self._buffers.get(key)
        need = max(rows, self.points) * cols
        if buf is None or buf.size < need:
            buf = self._buffers[key] = np.empty(need)
        return buf[:rows * cols].reshape(rows, cols)

    def zeros(self, key: str, rows: int, cols: int) -> np.ndarray:
        """``take``, filled with 0.0."""
        out = self.take(key, rows, cols)
        out.fill(0.0)
        return out
