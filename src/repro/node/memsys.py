"""Assembly of one node's memory system.

Two configurations, selected by ``config.memory_model``:

``"cached"`` (base, Table 1)
    AGUs -> router -> [scatter-add unit -> cache bank] x8 -> DRAM channels.
    One scatter-add unit per address-partitioned cache bank (Figure 4a);
    ``scatter_add_units_per_bank > 1`` further interleaves addresses across
    sub-units of a bank (an ablation of FU throughput).

``"uniform"`` (sensitivity studies, Section 4.4)
    AGUs -> router -> single scatter-add unit -> uniform memory
    (fixed word interval, fixed latency, no cache), the Figure 3 placement.
"""

from repro.cache.bank import CacheBank
from repro.core.unit import ScatterAddUnit
from repro.memory.backing import MainMemory
from repro.memory.dram import DRAMSystem, UniformMemory
from repro.node.router import Router


class MemorySystem:
    """One node's scatter-add units, cache banks and DRAM."""

    def __init__(self, sim, config, stats, sources, memory=None,
                 chaining=True, sumback_sink=None, name="memsys",
                 tracer=None):
        self.config = config
        self.stats = stats
        self.memory = memory if memory is not None else MainMemory()
        self.banks = []
        self.units = []

        if config.memory_model == "cached":
            self.dram = DRAMSystem(sim, config, self.memory, stats,
                                   name=name + ".dram")
            per_bank = config.scatter_add_units_per_bank
            for bank_idx in range(config.cache_banks):
                bank = CacheBank(
                    sim, config, stats, self.dram.req_in,
                    name="%s.bank%d" % (name, bank_idx),
                    sumback_sink=sumback_sink,
                )
                self.banks.append(bank)
                for sub in range(per_bank):
                    unit = ScatterAddUnit(
                        sim, config, stats, bank.req_in,
                        name="%s.sau%d_%d" % (name, bank_idx, sub),
                        chaining=chaining, tracer=tracer,
                    )
                    self.units.append(unit)
                    sim.register(unit)
            banks = config.cache_banks
            line = config.cache_line_words

            def target_of(addr, _banks=banks, _line=line, _per=per_bank):
                line_idx = addr // _line
                bank = line_idx % _banks
                sub = (line_idx // _banks) % _per
                return bank * _per + sub

            targets = [unit.req_in for unit in self.units]
        else:
            self.dram = UniformMemory(sim, config, self.memory, stats,
                                      name=name + ".mem")
            unit = ScatterAddUnit(sim, config, stats, self.dram.req_in,
                                  name=name + ".sau0", chaining=chaining,
                                  tracer=tracer)
            self.units.append(unit)
            sim.register(unit)
            targets = [unit.req_in]

            def target_of(addr):
                return 0

        self.router = Router(sim, config, stats, sources, targets, target_of,
                             name=name + ".router")
        sim.register(self.router)

    def drain_to_memory(self):
        """Functionally flush dirty cache state into backing memory.

        Used after a run to inspect final results; models an instantaneous
        flush (timing-free), which is fine because measurements end at
        quiescence.
        """
        for bank in self.banks:
            bank.drain_to(self.memory)

    def read_result(self, base, length):
        """Final values of `length` words at `base`, cache included."""
        self.drain_to_memory()
        return self.memory.export_array(base, length)
