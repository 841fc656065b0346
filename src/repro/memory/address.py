"""Address interleaving functions.

The stream cache is *address partitioned* (Section 4.2): each bank owns an
interleaved slice of the address space at cache-line granularity, so every
request for a given line always lands on the same bank.  This is what makes
per-bank scatter-add units sufficient for atomicity -- and what produces
the *hot bank effect* of Figure 7 when the index range is small.  The
bank choice is the router's ``target_of``, built by
:class:`~repro.node.memsys.MemorySystem`; the home node of a multi-node
address is ``MultiNodeSystem.home_of``.

DRAM channels are interleaved the same way at line granularity.
"""

def line_base(addr, line_words):
    """Word address of the first word in `addr`'s line."""
    return (addr // line_words) * line_words


def channel_of(addr, channels, line_words):
    """DRAM channel owning word address `addr` (line-interleaved)."""
    return (addr // line_words) % channels
