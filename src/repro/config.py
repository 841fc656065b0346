"""Machine configuration — Table 1 of the paper.

:class:`MachineConfig` captures every parameter of the simulated Merrimac
node the paper lists in Table 1, plus the structural parameters the paper
states in prose (word size, cache organisation, scatter-add unit placement)
and the knobs its sensitivity studies sweep (combining-store entries,
functional-unit latency, uniform-memory latency/throughput).

All bandwidths are specified in the paper's units (GB/s at 1 GHz) and
converted to words/cycle here; a *word* is 8 bytes (the 64-bit data type of
the Merrimac scatter-add unit).
"""

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

#: Bytes per machine word (64-bit floating point / integer).
WORD_BYTES = 8

#: Version tag baked into every canonical config hash.  Bump it whenever a
#: field is added, removed or changes meaning, so hashes from different
#: schema generations can never collide — a cache keyed on
#: :meth:`MachineConfig.canonical_hash` is invalidated wholesale instead of
#: silently serving results computed under other semantics.
#:
#: Generation 2 always nests the interconnect under ``network`` (a
#: :class:`NetworkConfig`); generation 1 spelled the node count and link
#: bandwidth as top-level scalars.
CONFIG_SCHEMA = "repro.config/2"


@dataclass(frozen=True)
class NetworkConfig:
    """Structured description of the multi-node interconnect.

    Nested under :attr:`MachineConfig.network`; the default is a single
    node (no network)::

        MachineConfig(network=NetworkConfig(nodes=64, topology="tree",
                                            tree_radix=4,
                                            combine_site="both"))

    Attributes
    ----------
    nodes:
        Number of stream-processor nodes.
    topology:
        ``"crossbar"`` — the paper's single input-queued switch — or
        ``"tree"`` — a reduction tree of combining switches with
        configurable radix.  The crossbar is the degenerate tree (a single
        switch reaching every leaf).
    tree_radix:
        Children per tree switch (>= 2); ignored for the crossbar.
    combine_site:
        Where same-address scatter requests merge. ``"memory"`` — only at
        the home node's scatter-add unit (the paper's Section 4.5
        mechanism; bit-identical to the legacy network path).
        ``"network"`` — only in router combining tables; the home unit's
        combining-store chaining is disabled. ``"both"`` — routers merge in
        flight *and* the home unit chains.
    combining_table_entries:
        Per-output combining-table entries in each switch (>= 1).  The
        table doubles as the switch's output queue, so it also bounds
        in-switch buffering when combining is off.
    link_bw_words:
        Per-node link bandwidth in words/cycle (the paper sweeps 1 and 8).
    """

    nodes: int = 1
    topology: str = "crossbar"
    tree_radix: int = 4
    combine_site: str = "memory"
    combining_table_entries: int = 16
    link_bw_words: int = 8

    def __post_init__(self):
        _require(self.nodes >= 1, "network nodes must be >= 1")
        _require(self.topology in ("crossbar", "tree"),
                 "topology must be 'crossbar' or 'tree'")
        _require(self.tree_radix >= 2, "tree_radix must be >= 2")
        _require(self.combine_site in ("memory", "network", "both"),
                 "combine_site must be 'memory', 'network' or 'both'")
        _require(self.combining_table_entries >= 1,
                 "combining_table_entries must be >= 1")
        _require(self.link_bw_words >= 1, "link_bw_words must be >= 1")

    @property
    def network_combining(self):
        """True when routers hold combining tables (site network/both)."""
        return self.combine_site in ("network", "both")

    @property
    def memory_combining(self):
        """True when the home scatter-add unit chains (site memory/both)."""
        return self.combine_site in ("memory", "both")

    def with_changes(self, **changes):
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **changes)

    def to_dict(self):
        """Every field as a plain, JSON-serializable dict (sorted keys)."""
        return {field.name: getattr(self, field.name)
                for field in sorted(fields(self), key=lambda f: f.name)}

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`to_dict` output (re-validated).

        Missing fields take their defaults; unknown keys are rejected
        loudly, mirroring :meth:`MachineConfig.from_dict`.
        """
        if not isinstance(data, dict):
            raise TypeError("NetworkConfig.from_dict wants a dict, got %s"
                            % type(data).__name__)
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError("unknown NetworkConfig field(s): %s"
                             % ", ".join(unknown))
        return cls(**data)


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of one simulated stream-processor node.

    Defaults reproduce Table 1 of the paper exactly.  Instances are frozen;
    derive variants with :meth:`with_changes`.
    """

    # --- Table 1 parameters -------------------------------------------------
    cache_banks: int = 8
    scatter_add_units_per_bank: int = 1
    fu_latency: int = 4
    combining_store_entries: int = 8
    dram_channels: int = 16
    address_generators: int = 2
    frequency_ghz: float = 1.0
    peak_dram_bw_gbs: float = 38.4
    cache_bw_gbs: float = 64.0
    clusters: int = 16
    peak_flops_per_cycle: int = 128
    srf_bw_gbs: float = 512.0
    srf_size_bytes: int = 1 << 20
    cache_size_bytes: int = 1 << 20

    # --- structural parameters stated in prose ------------------------------
    cache_line_words: int = 4
    cache_associativity: int = 4
    cache_hit_latency: int = 2
    dram_latency: int = 40

    # --- DRAM detail model ----------------------------------------------------
    #: "flat": fixed access latency per transaction (default; what the
    #: paper's averaged-delay argument assumes once access scheduling
    #: keeps variance small).  "rowbuffer": open-row model with distinct
    #: hit/miss latencies and a per-channel scheduler.
    dram_model: str = "flat"
    #: Row-buffer size in words (4 KB rows of 8-byte words).
    dram_row_words: int = 512
    #: Access latency when the open row matches (CAS only).
    dram_row_hit_latency: int = 20
    #: Access latency on a row conflict (precharge + activate + CAS).
    dram_row_miss_latency: int = 56
    #: Per-channel scheduling under the rowbuffer model: "inorder" or
    #: "frfcfs" (first-ready first-come-first-served -- memory access
    #: scheduling, Rixner et al., the paper's citation [34]).
    dram_scheduling: str = "frfcfs"

    # --- memory-model selection (Section 4.4 sensitivity studies) -----------
    #: "cached": banked stream cache in front of DRAM channels (base config).
    #: "uniform": no cache; fixed latency and fixed inter-access interval,
    #: as used for Figures 11 and 12.
    memory_model: str = "cached"
    uniform_latency: int = 16
    uniform_interval: int = 2

    # --- stream-program cost-model parameters --------------------------------
    #: Fixed overhead, in cycles, of starting one stream operation (kernel or
    #: memory stream): instruction issue, SRF allocation, memory-pipeline
    #: priming.  The paper attributes the optimal sort batch size of 256 to
    #: this overhead ("smaller batches do not amortize the latency of
    #: starting a stream operation").
    stream_op_overhead: int = 220

    # --- multi-node parameters (Section 4.5) --------------------------------
    #: Two-phase cache-combining optimisation (Section 3.2, multi-node).
    cache_combining: bool = False
    #: Hierarchical combining (Section 5 future work): sum-backs travel
    #: through a logical binary tree of nodes, combining at each hop, so
    #: cross-node combining costs O(log N) instead of O(N) messages per
    #: address.  Requires cache_combining.
    hierarchical_combining: bool = False
    #: The interconnect (:class:`NetworkConfig`); also accepts a plain
    #: dict of its fields.  The paper evaluates link bandwidths of 1 word
    #: per cycle ("low") and 8 ("high").
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self):
        if isinstance(self.network, dict):
            object.__setattr__(self, "network",
                               NetworkConfig.from_dict(self.network))
        _require(isinstance(self.network, NetworkConfig),
                 "network must be a NetworkConfig (or dict of its fields)")
        _require(self.cache_banks >= 1, "cache_banks must be >= 1")
        _require(
            self.cache_banks & (self.cache_banks - 1) == 0,
            "cache_banks must be a power of two (address interleaving)",
        )
        _require(self.scatter_add_units_per_bank >= 1, "need >= 1 unit per bank")
        _require(self.fu_latency >= 1, "fu_latency must be >= 1")
        _require(self.combining_store_entries >= 1, "need >= 1 combining entry")
        _require(self.dram_channels >= 1, "dram_channels must be >= 1")
        _require(self.address_generators >= 1, "need >= 1 address generator")
        _require(self.cache_line_words >= 1, "cache_line_words must be >= 1")
        _require(self.cache_associativity >= 1, "associativity must be >= 1")
        _require(self.memory_model in ("cached", "uniform"),
                 "memory_model must be 'cached' or 'uniform'")
        _require(self.dram_model in ("flat", "rowbuffer"),
                 "dram_model must be 'flat' or 'rowbuffer'")
        _require(self.dram_scheduling in ("inorder", "frfcfs"),
                 "dram_scheduling must be 'inorder' or 'frfcfs'")
        _require(self.dram_row_words >= 1, "dram_row_words must be >= 1")
        _require(self.uniform_interval >= 1, "uniform_interval must be >= 1")
        _require(not self.hierarchical_combining or self.cache_combining,
                 "hierarchical_combining requires cache_combining")

    # --- derived quantities --------------------------------------------------
    @property
    def cache_words_per_cycle(self):
        """Total stream-cache bandwidth in words/cycle (64 GB/s -> 8)."""
        return _bw_words(self.cache_bw_gbs, self.frequency_ghz)

    @property
    def bank_words_per_cycle(self):
        """Per-bank cache bandwidth in words/cycle (>= 1)."""
        return max(1, self.cache_words_per_cycle // self.cache_banks)

    @property
    def dram_words_per_cycle(self):
        """Total DRAM bandwidth in words/cycle (38.4 GB/s -> 4.8)."""
        return self.peak_dram_bw_gbs / (self.frequency_ghz * WORD_BYTES)

    @property
    def dram_channel_interval(self):
        """Cycles between successive word accesses on one DRAM channel."""
        interval = round(self.dram_channels / self.dram_words_per_cycle)
        return max(1, interval)

    @property
    def srf_words_per_cycle(self):
        """SRF bandwidth in words/cycle (512 GB/s -> 64)."""
        return _bw_words(self.srf_bw_gbs, self.frequency_ghz)

    @property
    def agu_words_per_cycle(self):
        """Per-address-generator issue bandwidth in words/cycle."""
        return max(1, self.cache_words_per_cycle // self.address_generators)

    @property
    def cache_lines_total(self):
        """Total cache capacity in lines."""
        return self.cache_size_bytes // (self.cache_line_words * WORD_BYTES)

    @property
    def cache_sets_per_bank(self):
        """Number of sets in each cache bank."""
        lines_per_bank = self.cache_lines_total // self.cache_banks
        return max(1, lines_per_bank // self.cache_associativity)

    @property
    def cycle_time_us(self):
        """Duration of one cycle in microseconds."""
        return 1e-3 / self.frequency_ghz

    def cycles_to_us(self, cycles):
        """Convert a cycle count to microseconds at this clock."""
        return cycles * self.cycle_time_us

    @property
    def nodes(self):
        """Number of stream-processor nodes (``network.nodes``)."""
        return self.network.nodes

    def with_changes(self, **changes):
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **changes)

    # --- serialization -------------------------------------------------------
    def to_dict(self):
        """Every field as a plain, JSON-serializable dict (sorted keys).

        ``network`` nests as the plain dict of its own fields.
        """
        data = {name: getattr(self, name)
                for name in sorted(f.name for f in fields(self))}
        data["network"] = self.network.to_dict()
        return data

    @classmethod
    def from_dict(cls, data):
        """Rebuild a config from :meth:`to_dict` output (re-validated).

        Missing fields take their defaults, so a dict serialized before a
        field existed still loads; unknown keys are rejected loudly rather
        than silently dropped (a typo'd field name must not hash to the
        base configuration).
        """
        if not isinstance(data, dict):
            raise TypeError("MachineConfig.from_dict wants a dict, got %s"
                            % type(data).__name__)
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError("unknown MachineConfig field(s): %s"
                             % ", ".join(unknown))
        return cls(**data)

    def canonical_hash(self):
        """Stable content hash of this configuration.

        SHA-256 over the version-tagged canonical JSON form (sorted keys,
        explicit value for every field).  Two configs hash identically iff
        every field value matches — however they were constructed (kwargs,
        :meth:`from_dict`, :meth:`with_changes`) and whether a value was
        passed explicitly or defaulted.  Because defaults are expanded
        before hashing, editing a field *default* in code only changes the
        hashes of configs that actually carry the new value.
        """
        payload = json.dumps({"schema": CONFIG_SCHEMA, "config": self.to_dict()},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # --- presets used by the experiments ------------------------------------
    @classmethod
    def table1(cls):
        """The paper's base configuration (Table 1)."""
        return cls()

    @classmethod
    def uniform(cls, latency=16, interval=2, combining_store_entries=8,
                fu_latency=4):
        """The simplified memory system of the sensitivity studies (Sec 4.4).

        No cache; memory is a uniform bandwidth/latency structure with a
        fixed cycle interval between successive word accesses.
        """
        return cls(
            memory_model="uniform",
            uniform_latency=latency,
            uniform_interval=interval,
            combining_store_entries=combining_store_entries,
            fu_latency=fu_latency,
        )


def _bw_words(gb_per_s, frequency_ghz):
    """Convert GB/s to whole words per cycle at the given clock."""
    return max(1, int(round(gb_per_s / (frequency_ghz * WORD_BYTES))))


def _require(condition, message):
    if not condition:
        raise ValueError("invalid MachineConfig: " + message)
