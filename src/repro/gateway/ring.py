"""Fixed-capacity IQ ring buffer with absolute sample indexing.

The gateway's ingest stage appends chunks as they arrive; the detection
stage reads windows by *absolute* stream position (sample index since the
run started), so its bookkeeping survives the buffer wrapping around.
When a producer outruns the consumer past the ring's capacity, the oldest
samples are overwritten and counted -- the bounded-memory half of the
gateway's backpressure story (the decode pool's admission gate is the
other half).
"""

from __future__ import annotations

import numpy as np


class SampleRing:
    """Circular complex-sample buffer addressed by absolute stream index.

    Parameters
    ----------
    capacity:
        Maximum number of samples retained.  Appends beyond it evict the
        oldest samples (returned as an overflow count so the caller can
        account the loss).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._buffer = np.zeros(self.capacity, dtype=complex)
        self._start = 0  # absolute index of the oldest retained sample
        self._count = 0  # retained samples

    # ------------------------------------------------------------------
    @property
    def start(self) -> int:
        """Absolute index of the oldest retained sample."""
        return self._start

    @property
    def end(self) -> int:
        """Absolute index one past the newest retained sample."""
        return self._start + self._count

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    def append(self, chunk: np.ndarray) -> int:
        """Append ``chunk``; returns how many old samples were evicted.

        A chunk larger than the whole ring keeps only its newest
        ``capacity`` samples (everything older is counted as evicted).
        """
        chunk = np.asarray(chunk, dtype=complex).ravel()
        evicted = 0
        if chunk.size >= self.capacity:
            evicted = self._count + (chunk.size - self.capacity)
            self._start += self._count + chunk.size - self.capacity
            self._count = self.capacity
            tail = chunk[-self.capacity :]
            pos = self._start % self.capacity
            first = min(self.capacity - pos, self.capacity)
            self._buffer[pos : pos + first] = tail[:first]
            if first < self.capacity:
                self._buffer[: self.capacity - first] = tail[first:]
            return evicted
        overflow = self._count + chunk.size - self.capacity
        if overflow > 0:
            self._start += overflow
            self._count -= overflow
            evicted = overflow
        pos = (self._start + self._count) % self.capacity
        first = min(self.capacity - pos, chunk.size)
        self._buffer[pos : pos + first] = chunk[:first]
        if first < chunk.size:
            self._buffer[: chunk.size - first] = chunk[first:]
        self._count += chunk.size
        return evicted

    def consume(self, upto: int) -> None:
        """Release every sample with absolute index below ``upto``."""
        if upto <= self._start:
            return
        released = min(upto - self._start, self._count)
        self._start += released
        self._count -= released

    def view(self, start: int, length: int) -> np.ndarray:
        """Copy out ``length`` samples beginning at absolute ``start``.

        The span must be fully retained; asking for evicted or not yet
        appended samples raises ``IndexError`` (the gateway treats that as
        a programming error, not a recoverable condition).
        """
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        if start < self._start or start + length > self.end:
            raise IndexError(
                f"span [{start}, {start + length}) outside retained "
                f"[{self._start}, {self.end})"
            )
        if length == 0:
            return np.zeros(0, dtype=complex)
        pos = start % self.capacity
        first = min(self.capacity - pos, length)
        out = np.empty(length, dtype=complex)
        out[:first] = self._buffer[pos : pos + first]
        if first < length:
            out[first:] = self._buffer[: length - first]
        return out
