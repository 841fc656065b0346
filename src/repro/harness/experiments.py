"""One experiment per table/figure of the paper's evaluation (Section 4).

Every function returns an :class:`~repro.harness.report.ExperimentResult`
whose rows correspond to the series the paper plots.  Default parameters
are the paper's; several accept scale factors so the benchmark suite can
run reduced versions quickly (the scaling applied is recorded in the
result's notes).
"""

import dataclasses

import numpy as np

from repro.config import MachineConfig, NetworkConfig
from repro.harness.report import ExperimentResult
from repro.multinode.system import MultiNodeSystem
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.md import MDWorkload
from repro.workloads.spmv import SpMVWorkload
from repro.workloads.traces import gromacs_trace, histogram_trace, spas_trace


def table1():
    """Table 1: machine parameters of the base configuration."""
    config = MachineConfig.table1()
    rows = [
        {"parameter": field.name, "value": getattr(config, field.name)}
        for field in dataclasses.fields(MachineConfig)
        if field.name != "network"
    ]
    rows.extend(
        {"parameter": "network." + field.name,
         "value": getattr(config.network, field.name)}
        for field in dataclasses.fields(NetworkConfig)
    )
    rows.extend([
        {"parameter": "cache_words_per_cycle (derived)",
         "value": config.cache_words_per_cycle},
        {"parameter": "dram_words_per_cycle (derived)",
         "value": round(config.dram_words_per_cycle, 2)},
        {"parameter": "srf_words_per_cycle (derived)",
         "value": config.srf_words_per_cycle},
    ])
    return ExperimentResult(
        "table1", "Machine parameters", ["parameter", "value"], rows,
    )


def figure6(sizes=(256, 512, 1024, 2048, 4096, 8192), index_range=2048,
            seed=0, config=None):
    """Histogram time vs. input length; HW scatter-add vs. sort&scan.

    Paper: both O(n); hardware wins by 3:1 up to 11:1.
    """
    config = config or MachineConfig.table1()
    rows = []
    for size in sizes:
        workload = HistogramWorkload(size, index_range, seed)
        reference = workload.reference()
        hardware = workload.run_hardware(config)
        software = workload.run_sortscan(config)
        _check(hardware.bins, reference, "figure6 hw n=%d" % size)
        _check(software.bins, reference, "figure6 sw n=%d" % size)
        rows.append({
            "n": size,
            "scatter_add_us": hardware.microseconds,
            "sort_scan_us": software.microseconds,
            "speedup": software.cycles / hardware.cycles,
        })
    return ExperimentResult(
        "figure6",
        "Histogram vs input length (range %d)" % index_range,
        ["n", "scatter_add_us", "sort_scan_us", "speedup"],
        rows,
        notes="paper reports speedups of 3:1 up to 11:1, both methods O(n)",
    )


def figure7(length=32768,
            ranges=(1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
                    262144, 1048576, 4194304),
            seed=0, config=None):
    """Histogram time vs. index range at fixed length.

    Paper: hot-bank penalty at small ranges, improvement as ranges grow,
    sharp degradation once the bins exceed the cache.
    """
    config = config or MachineConfig.table1()
    rows = []
    for index_range in ranges:
        workload = HistogramWorkload(length, index_range, seed)
        hardware = workload.run_hardware(config)
        software = workload.run_sortscan(config)
        rows.append({
            "range": index_range,
            "scatter_add_us": hardware.microseconds,
            "sort_scan_us": software.microseconds,
        })
    return ExperimentResult(
        "figure7",
        "Histogram vs index range (n=%d)" % length,
        ["range", "scatter_add_us", "sort_scan_us"],
        rows,
        notes="hot-bank effect at small ranges; cache-capacity cliff above "
              "%d bins" % (config.cache_size_bytes // 8),
    )


def figure8(lengths=(1024, 32768), ranges=(128, 512, 2048, 8192), seed=0,
            config=None):
    """Histogram: hardware scatter-add vs. privatization.

    Paper: privatization is O(m*n); hardware wins by over an order of
    magnitude at large ranges.
    """
    config = config or MachineConfig.table1()
    rows = []
    for length in lengths:
        for index_range in ranges:
            workload = HistogramWorkload(length, index_range, seed)
            reference = workload.reference()
            hardware = workload.run_hardware(config)
            private = workload.run_privatization(config)
            _check(hardware.bins, reference, "figure8 hw")
            _check(private.bins, reference, "figure8 priv")
            rows.append({
                "n": length,
                "range": index_range,
                "scatter_add_us": hardware.microseconds,
                "privatization_us": private.microseconds,
                "speedup": private.cycles / hardware.cycles,
            })
    return ExperimentResult(
        "figure8",
        "Histogram vs privatization",
        ["n", "range", "scatter_add_us", "privatization_us", "speedup"],
        rows,
        notes="privatization is O(m*n): speedup grows with the range",
    )


def figure9(mesh_dims=(8, 8, 5), seed=0, config=None):
    """Sparse matrix-vector multiply: CSR vs EBE-SW vs EBE-HW.

    Paper: without HW scatter-add CSR beats EBE by 2.2x; with it EBE gains
    45% over CSR.  (Exec cycles / FP ops / mem refs bars.)
    """
    from repro.workloads.fem import build_tet_mesh

    config = config or MachineConfig.table1()
    workload = SpMVWorkload(build_tet_mesh(*mesh_dims, seed=seed), seed=seed)
    reference = workload.reference()
    rows = []
    for label, runner in (("CSR", workload.run_csr),
                          ("EBE SW scatter-add", workload.run_ebe_software),
                          ("EBE HW scatter-add", workload.run_ebe_hardware)):
        result = runner(config)
        _check(result.y, reference, "figure9 %s" % label, atol=1e-6)
        rows.append({
            "method": label,
            "exec_cycles_M": result.cycles / 1e6,
            "fp_ops_M": result.fp_ops / 1e6,
            "mem_refs_M": result.mem_refs / 1e6,
        })
    return ExperimentResult(
        "figure9",
        "SpMV: CSR vs EBE (mesh %dx%dx%d: %d elements, %d DOF)" % (
            mesh_dims + (workload.mesh.num_elements, workload.rows)),
        ["method", "exec_cycles_M", "fp_ops_M", "mem_refs_M"],
        rows,
        notes="paper: CSR 0.334/1.217/1.836; EBE-SW 0.739/1.735/1.031; "
              "EBE-HW 0.230/1.536/0.922 (x1M)",
    )


def figure10(molecules=903, seed=0, config=None):
    """GROMACS non-bonded kernel: no-SA (duplicated) vs SW-SA vs HW-SA.

    Paper: duplication beats SW scatter-add by 3.1x; HW scatter-add beats
    duplication by 76%.
    """
    config = config or MachineConfig.table1()
    workload = MDWorkload(molecules=molecules, seed=seed)
    reference = workload.reference()
    rows = []
    for label, runner in (("no scatter-add", workload.run_duplicated),
                          ("SW scatter-add", workload.run_software),
                          ("HW scatter-add", workload.run_hardware)):
        result = runner(config)
        _check(result.forces, reference, "figure10 %s" % label, atol=1e-6)
        rows.append({
            "method": label,
            "exec_cycles_M": result.cycles / 1e6,
            "fp_ops_M": result.fp_ops / 1e6,
            "mem_refs_M": result.mem_refs / 1e6,
        })
    return ExperimentResult(
        "figure10",
        "GROMACS kernel (%d molecules, %d pairs)" % (
            molecules, workload.num_pairs),
        ["method", "exec_cycles_M", "fp_ops_M", "mem_refs_M"],
        rows,
        notes="paper: no-SA 0.975/45.24/1.722; SW 3.022/24.9/4.865; "
              "HW 0.553/29.16/1.87 (cycles x1M, ops x10M->x1M here, refs x1M)",
    )


def figure11(entries=(2, 4, 8, 16, 64),
             memory_latencies=(8, 16, 64, 256),
             fu_latencies=(2, 8, 16),
             length=512, index_range=65536, seed=0):
    """Sensitivity to combining-store size and memory/FU latency.

    Uniform memory model, throughput one word per two cycles.  Paper: with
    >= 16 entries performance is independent of FU latency and nearly
    independent of memory latency; 64 entries hide 256-cycle latency.
    """
    from repro.api import Simulation
    from repro.workloads.histogram import generate_dataset

    data = generate_dataset(length, index_range, seed)
    rows = []
    for entry_count in entries:
        row = {"entries": entry_count}
        for latency in memory_latencies:
            config = MachineConfig.uniform(
                latency=latency, interval=2,
                combining_store_entries=entry_count, fu_latency=4,
            )
            run = Simulation(config).run("scatter_add", data, 1.0,
                                         num_targets=index_range)
            row["mem%d_us" % latency] = run.microseconds
        for fu_latency in fu_latencies:
            config = MachineConfig.uniform(
                latency=16, interval=2,
                combining_store_entries=entry_count, fu_latency=fu_latency,
            )
            run = Simulation(config).run("scatter_add", data, 1.0,
                                         num_targets=index_range)
            row["fu%d_us" % fu_latency] = run.microseconds
        rows.append(row)
    columns = (["entries"]
               + ["mem%d_us" % latency for latency in memory_latencies]
               + ["fu%d_us" % latency for latency in fu_latencies])
    return ExperimentResult(
        "figure11",
        "Combining-store size vs latencies (n=%d, range=%d)" % (
            length, index_range),
        columns, rows,
        notes="uniform memory, 1 word / 2 cycles; >=16 entries should hide "
              "FU latency, 64 entries should hide 256-cycle memory latency",
    )


def figure12(entries=(2, 4, 8, 16, 64), intervals=(1, 2, 4, 16),
             ranges=(16, 65536), length=512, seed=0):
    """Sensitivity to memory throughput; combining rescues narrow ranges.

    Paper: low bandwidth bounds the wide-range case regardless of store
    size, but with few bins the combining store captures most requests.
    """
    from repro.api import Simulation
    from repro.workloads.histogram import generate_dataset

    rows = []
    for entry_count in entries:
        row = {"entries": entry_count}
        for index_range in ranges:
            data = generate_dataset(length, index_range, seed)
            for interval in intervals:
                config = MachineConfig.uniform(
                    latency=16, interval=interval,
                    combining_store_entries=entry_count,
                )
                run = Simulation(config).run("scatter_add", data, 1.0,
                                             num_targets=index_range)
                row["r%d_i%d_us" % (index_range, interval)] = run.microseconds
        rows.append(row)
    columns = ["entries"] + [
        "r%d_i%d_us" % (index_range, interval)
        for index_range in ranges for interval in intervals
    ]
    return ExperimentResult(
        "figure12",
        "Combining-store size vs memory throughput (n=%d)" % length,
        columns, rows,
        notes="narrow range (16 bins) combines in the store and tolerates "
              "low bandwidth; wide range (65536) is bandwidth bound",
    )


#: The ten series of Figure 13: (workload, network bandwidth words/cycle,
#: cache combining).
FIGURE13_SERIES = (
    ("narrow", 8, False), ("narrow", 1, False), ("narrow", 1, True),
    ("wide", 8, False), ("wide", 1, False), ("wide", 1, True),
    ("gromacs", 1, True), ("gromacs", 8, True),
    ("spas", 1, True), ("spas", 8, True),
)


def figure13(node_counts=(1, 2, 4, 8), series=FIGURE13_SERIES, scale=1.0,
             seed=0):
    """Multi-node scatter-add throughput (GB/s) for 1-8 nodes.

    `scale` < 1 shrinks the traces proportionally (noted in the result)
    to keep simulation time down; scaling preserves the index ranges and
    locality structure, so the curve *shapes* are unaffected.
    """
    from repro.api import scatter_add_reference

    traces = {}
    for kind in {name for name, __, __ in series}:
        if kind in ("narrow", "wide"):
            refs = max(1024, int(65536 * scale))
            indices, targets = histogram_trace(kind, refs=refs, seed=seed)
        elif kind == "gromacs":
            refs = max(1024, int(590_000 * scale))
            indices, targets = gromacs_trace(refs=refs, seed=seed)
        elif kind == "spas":
            # The full SPAS stream is only 38K references; always use it.
            indices, targets = spas_trace()
        else:
            raise ValueError("unknown figure13 series %r" % (kind,))
        traces[kind] = (indices, targets)

    rows = []
    for nodes in node_counts:
        row = {"nodes": nodes}
        for kind, bandwidth, combining in series:
            indices, targets = traces[kind]
            config = MachineConfig(
                network=NetworkConfig(nodes=nodes, link_bw_words=bandwidth),
                cache_combining=combining,
            )
            system = MultiNodeSystem(config, address_space=targets)
            run = system.scatter_add(indices, 1.0, num_targets=targets)
            reference = scatter_add_reference(
                np.zeros(targets), indices, 1.0
            )
            _check(run.result, reference,
                   "figure13 %s bw=%d comb=%r nodes=%d"
                   % (kind, bandwidth, combining, nodes))
            label = "%s-%s%s" % (kind,
                                 "high" if bandwidth >= 8 else "low",
                                 "-comb" if combining else "")
            row[label] = run.throughput_gbs
        rows.append(row)
    columns = ["nodes"] + [
        "%s-%s%s" % (kind, "high" if bw >= 8 else "low",
                     "-comb" if comb else "")
        for kind, bw, comb in series
    ]
    return ExperimentResult(
        "figure13",
        "Multi-node scatter-add throughput (GB/s)",
        columns, rows,
        notes="trace scale factor %.2f applied to the paper's reference "
              "counts (64K histogram / 590K GROMACS / 38K SPAS)" % scale,
    )


def _ablation_trace(kind, nodes, refs_per_node, seed):
    """A scatter trace for one ablation point: (indices, num_targets).

    ``uniform`` spreads references evenly over the whole index range (one
    home node is as likely as another); ``skewed`` sends 80% of them to 8
    hot indices, so nearly all traffic converges on a couple of home
    nodes -- the regime where merging requests *in flight* pays off.
    """
    rng = np.random.default_rng(seed)
    refs = nodes * refs_per_node
    targets = max(64, nodes * 16)
    uniform = rng.integers(0, targets, size=refs)
    if kind == "uniform":
        return uniform, targets
    if kind == "skewed":
        hot = rng.integers(0, targets, size=8)
        pick = rng.random(refs) < 0.8
        return np.where(pick, hot[rng.integers(0, 8, size=refs)],
                        uniform), targets
    raise ValueError("unknown ablation workload %r" % (kind,))


#: Combine sites the network ablation sweeps, in presentation order.
ABLATION_SITES = ("memory", "network", "both")


def network_ablation(node_counts=(4, 16, 64, 256, 1024),
                     workloads=("uniform", "skewed"),
                     sites=ABLATION_SITES,
                     topology="tree", tree_radix=4, link_bw_words=2,
                     refs_per_node=32, seed=0):
    """Where should scatter requests combine: memory, network, or both?

    Sweeps the combine site over node counts and index-range skew on a
    fixed reduction-tree interconnect.  Each node's machine is shrunk to
    one bank / one channel / one AGU so the interconnect (not the node
    pipeline) dominates, and every run's result is checked exactly
    against the numpy reference (values are 1.0, so summation order
    cannot perturb the float sums).

    The paper's Section 4.5 combines only at the memory-side unit;
    Tascade-style in-network reduction trees merge hot-index requests in
    flight before they reach the home node.  On the skewed workload the
    run *asserts* that network combining absorbs requests
    (``sim.network.combined_in_flight`` > 0) and reduces home-node
    request traffic (``sim.network.delivered``) versus the memory-only
    baseline at the same node count.
    """
    from repro.api import scatter_add_reference

    rows = []
    for nodes in node_counts:
        for kind in workloads:
            indices, targets = _ablation_trace(kind, nodes, refs_per_node,
                                               seed)
            reference = scatter_add_reference(np.zeros(targets), indices,
                                              1.0)
            row = {"nodes": nodes, "workload": kind}
            delivered = {}
            for site in sites:
                config = MachineConfig(
                    cache_banks=1, dram_channels=1, address_generators=1,
                    network=NetworkConfig(
                        nodes=nodes, topology=topology,
                        tree_radix=tree_radix, combine_site=site,
                        link_bw_words=link_bw_words,
                    ),
                )
                system = MultiNodeSystem(config, address_space=targets)
                run = system.scatter_add(indices, 1.0,
                                         num_targets=targets)
                _check(run.result, reference,
                       "network_ablation %s nodes=%d site=%s"
                       % (kind, nodes, site))
                stats = run.stats.as_dict()
                row[site] = run.cycles
                delivered[site] = stats.get("sim.network.delivered", 0)
                if site == "both":
                    row["combined"] = int(
                        stats.get("sim.network.combined_in_flight", 0))
                    if kind == "skewed":
                        if row["combined"] <= 0:
                            raise AssertionError(
                                "network_ablation nodes=%d: no in-flight "
                                "combining on the skewed workload" % nodes)
            if kind == "skewed" and "memory" in delivered:
                for site in ("network", "both"):
                    if site in delivered and (delivered[site]
                                              >= delivered["memory"]):
                        raise AssertionError(
                            "network_ablation nodes=%d site=%s: home-node "
                            "traffic %d not below memory-only %d"
                            % (nodes, site, delivered[site],
                               delivered["memory"]))
            row["home_drop_pct"] = (
                100.0 * (1.0 - delivered.get("both", 0)
                         / delivered["memory"])
                if delivered.get("memory") else 0.0)
            rows.append(row)
    columns = ["nodes", "workload"] + list(sites) + ["combined",
                                                     "home_drop_pct"]
    result = ExperimentResult(
        "network_ablation",
        "Combine-site ablation, %s radix-%d (cycles)" % (topology,
                                                         tree_radix),
        columns, rows,
        notes="per-node machine shrunk to 1 bank / 1 channel / 1 AGU; "
              "%d refs/node (weak scaling), link %d words/cycle; "
              "'combined' counts requests merged in flight at "
              "combine-site both; home_drop_pct is the home-node traffic "
              "reduction of 'both' vs memory-only"
              % (refs_per_node, link_bw_words),
    )
    result.notes += "\n\n" + _ablation_figure(result, workloads, sites)
    return result


def _ablation_figure(result, workloads, sites):
    """ASCII companion figure: cycles vs nodes, one chart per workload."""
    from repro.harness.figures import line_chart

    charts = []
    for kind in workloads:
        view = ExperimentResult(
            result.exp_id, "%s workload — cycles vs nodes" % kind,
            result.columns,
            [row for row in result.rows if row["workload"] == kind],
        )
        if len(view.rows) >= 2:
            charts.append(line_chart(view, "nodes", list(sites),
                                     logx=True, logy=True))
    return "\n\n".join(charts)


def _check(actual, expected, label, atol=0.0):
    """Assert a run's functional output matches the numpy reference."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if atol:
        ok = np.allclose(actual, expected, atol=atol, rtol=1e-9)
    else:
        ok = np.array_equal(actual, expected)
    if not ok:
        worst = float(np.max(np.abs(actual - expected)))
        raise AssertionError(
            "%s: simulated result diverges from reference (max |err| %g)"
            % (label, worst)
        )
