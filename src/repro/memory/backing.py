"""Functional backing store for simulated memory.

The simulator is *value-accurate*: every modelled structure (DRAM, cache
lines, combining store) carries real data, so any run can be checked
bit-for-bit against the numpy reference semantics
(:func:`repro.api.scatter_add_reference`).  :class:`MainMemory` is the
bottom of that hierarchy -- a sparse word-addressed store defaulting to
zero.
"""

import numpy as np


class MainMemory:
    """Sparse word-addressable memory, default value 0.0."""

    def __init__(self):
        self._words = {}

    def read_word(self, addr):
        """Value at word address `addr` (0.0 if never written)."""
        return self._words.get(addr, 0.0)

    def write_word(self, addr, value):
        """Store `value` at word address `addr`."""
        self._words[addr] = value

    def read_line(self, base, line_words):
        """Read `line_words` consecutive words starting at `base`."""
        read = self._words.get
        return [read(base + i, 0.0) for i in range(line_words)]

    def write_line(self, base, values):
        """Write consecutive `values` starting at word address `base`."""
        for offset, value in enumerate(values):
            self._words[base + offset] = value

    def load_array(self, base, array):
        """Bulk-initialise memory from a 1-D array at word address `base`."""
        values = np.asarray(array, dtype=np.float64).tolist()
        self._words.update(zip(range(base, base + len(values)), values))

    def export_array(self, base, length, dtype=np.float64):
        """Read `length` words starting at `base` into a numpy array.

        Untouched words are zero, so the touched words are scattered into
        a zero block in one vectorised pass instead of probing every
        address -- result exports of large mostly-cold tables dominate
        short runs otherwise.
        """
        words = self._words
        out = np.zeros(length, dtype=dtype)
        if not words:
            return out
        addrs = np.fromiter(words.keys(), dtype=np.int64, count=len(words))
        values = np.fromiter(words.values(), dtype=np.float64,
                             count=len(words))
        inside = (addrs >= base) & (addrs < base + length)
        out[addrs[inside] - base] = values[inside]
        return out

    def __len__(self):
        return len(self._words)

    def __repr__(self):
        return "MainMemory(%d words touched)" % (len(self._words),)
