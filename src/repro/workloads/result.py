"""The outcome of one workload variant (histogram, SpMV, MD)."""


class WorkloadResult:
    """Cycles, output array and stats of one run of a workload variant.

    ``result`` is the array the variant produced -- histogram bins, the
    SpMV product or the MD force array -- as on
    :class:`~repro.api.ScatterRun`.
    """

    def __init__(self, config, method, cycles, result, stats):
        self.config = config
        self.method = method
        self.cycles = cycles
        self.result = result
        self.stats = stats

    #: The SpMV product and MD forces under their workload names; the
    #: benchmark suite (``bench/suite.py``) and the scheduler-equivalence
    #: tests read them.
    y = forces = property(lambda self: self.result)

    @property
    def microseconds(self):
        return self.config.cycles_to_us(self.cycles)

    @property
    def fp_ops(self):
        """Cluster kernel FLOPs plus scatter-add unit sums."""
        return int(self.stats.get("cluster.fp_ops") + self.stats.get("fu.sums"))

    @property
    def mem_refs(self):
        """Word references issued by the application to the memory system."""
        return int(self.stats.get("memsys.refs"))

    def __repr__(self):
        return "WorkloadResult(%s, %d cycles, %d fp_ops, %d mem_refs)" % (
            self.method, self.cycles, self.fp_ops, self.mem_refs,
        )
