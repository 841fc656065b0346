"""Compare two benchmark reports, one row per workload and metric.

    python bench/compare.py A/report.json B/report.json

A is the base, B the candidate.  Each row shows both sides' median and
quartiles, and the reported value (the fastest run for throughputs, see
run.summarize).  The verdict compares the reported values with the
bounds in BENCHMARK.json:

- ``within bound``: B is no worse than A by more than the bound;
- ``worse``: B is worse than A by more than the bound;
- ``unresolved``: a side's quartile distance is wider than the change
  the bound allows, and not every run of B beats every run of A.

``failed_frac`` is always compared, with bound 0: any increase is worse.
When both reports used the same seed, ``sim_cycles`` is deterministic
and any change is worse.  Exits 1 when any row is ``worse``.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Absolute slack below which a change in the metric is not judged.
ABSOLUTE_FLOOR = {"setup_s": 0.005}
#: Metrics the same seed reproduces exactly.
EXACT = ("sim_cycles",)


def metric_rules(spec):
    rules = {metric["name"]: metric for metric in spec["end_to_end"]}
    rules.setdefault("failed_frac", {"name": "failed_frac", "unit": "ratio",
                                     "better": "lower", "bound": 0.0})
    return rules


def verdict(rule, base, new, exact=False):
    """Judge one metric: ``within bound``, ``worse`` or ``unresolved``."""
    if exact:
        return "within bound" if new["value"] == base["value"] else "worse"
    bound = rule["bound"]
    sign = 1.0 if rule["better"] == "lower" else -1.0
    worse_by = sign * (new["value"] - base["value"])
    allowed = max(bound * abs(base["value"]),
                  ABSOLUTE_FLOOR.get(rule["name"], 0.0))
    if sign > 0:
        all_better = max(new["samples"]) < min(base["samples"])
    else:
        all_better = min(new["samples"]) > max(base["samples"])
    noise = max(base["q3"] - base["q1"], new["q3"] - new["q1"])
    if noise > allowed and not all_better:
        return "unresolved"
    return "worse" if worse_by > allowed else "within bound"


def compare(base_report, new_report, spec):
    """Rows of (workload, metric, base summary, new summary, verdict)."""
    rules = metric_rules(spec)
    same_seed = base_report.get("seed") == new_report.get("seed")
    rows = []
    for workload, base in base_report["workloads"].items():
        new = new_report["workloads"].get(workload)
        if new is None:
            continue
        for name, rule in rules.items():
            if name in base["end_to_end"] and name in new["end_to_end"]:
                rows.append((workload, name, base["end_to_end"][name],
                             new["end_to_end"][name],
                             verdict(rule, base["end_to_end"][name],
                                     new["end_to_end"][name],
                                     same_seed and name in EXACT)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="report.json of the base")
    parser.add_argument("new", help="report.json of the candidate")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    rows = compare(base, new, spec)

    def quartiles(entry):
        return "%.6g | %.6g [%.6g, %.6g]" % (
            entry["value"], entry["median"], entry["q1"], entry["q3"])

    print("%-14s %-26s %-44s %-44s %s" % (
        "workload", "metric", "A value | median [q1, q3]",
        "B value | median [q1, q3]", "verdict"))
    for workload, name, base_entry, new_entry, judged in rows:
        print("%-14s %-26s %-44s %-44s %s" % (
            workload, name, quartiles(base_entry), quartiles(new_entry),
            judged))
    worse = sum(1 for row in rows if row[4] == "worse")
    print("%d rows, %d worse, %d unresolved" % (
        len(rows), worse, sum(1 for row in rows if row[4] == "unresolved")))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
