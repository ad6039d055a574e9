"""Per-layer metrics from the spans of one traced workload iteration.

A span's self time is its duration minus the durations of its direct
child spans; a layer's self time is the sum over its functions.  Library
time is the time spent in spans of the five library layers that were
called from the CLI layer (or from nowhere), so it excludes the CLI's own
argument handling and output formatting.  A function missing from the
package (removed or renamed by a later change) reads 0 and is listed as
absent instead of failing the run.
"""

from pathlib import Path

import numpy as np

from tracer import LAYERS

MB = 2.0**20
NODE_CAP = 8192  # largest rule gamma_expectation's adaptive doubling evaluates

# (metric name, unit), in report order; the names are the per_layer
# metrics of BENCHMARK.json.
PER_LAYER = (
    ("specfun.gamma_expectation.calls", "count"),
    ("specfun.gamma_expectation.self_s", "s"),
    ("specfun.gamma_expectation.nodes", "count"),
    ("specfun.gamma_expectation.nodes_per_call", "count"),
    ("specfun.gamma_expectation.at_node_cap", "count"),
    ("specfun.reg_gamma_q.calls", "count"),
    ("specfun.reg_gamma_q.self_s", "s"),
    ("alloc.optimal_allocation.calls", "count"),
    ("alloc.optimal_allocation.total_s", "s"),
    ("alloc.optimal_allocation.self_s", "s"),
    ("alloc.optimal_allocation.gamma_expectation_calls", "count"),
    ("alloc.waterfill.calls", "count"),
    ("alloc.waterfill.self_s", "s"),
    ("alloc.waterfill.calls_per_evaluate_bounds", "ratio"),
    ("rates.markov_lower.total_s", "s"),
    ("rates.markov_lower.self_s", "s"),
    ("rates.markov_lower.reg_gamma_q_calls", "count"),
    ("rates.markov_lower.used_ratio", "ratio"),
    ("rates.evaluate_bounds.total_s", "s"),
    ("rates.exact_rate.total_s", "s"),
    ("rates.awgn_reference.calls", "count"),
    ("channel.build_decay_profile.self_s", "s"),
    ("channel.fit_gamma_moments.calls", "count"),
    ("channel.fit_gamma_moments.self_s", "s"),
    ("ingest.write_channel_csv.total_s", "s"),
    ("ingest.write_channel_csv.mb_per_s", "MB/s"),
    ("ingest.write_channel_csv.peak_rss_growth_mb", "MB"),
    ("ingest.parse_channel_csv.total_s", "s"),
    ("ingest.parse_channel_csv.mb_per_s", "MB/s"),
    ("ingest.parse_channel_csv.peak_rss_growth_mb", "MB"),
    ("ingest.generate_snapshots.self_s", "s"),
    ("ingest.normalize_unit_mean.self_s", "s"),
    ("ingest.simo_gains.self_s", "s"),
    ("specfun.self_s", "s"),
    ("channel.self_s", "s"),
    ("alloc.self_s", "s"),
    ("rates.self_s", "s"),
    ("ingest.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.main.total_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("library.total_s", "s"),
    ("alloc.optimal_allocation.library_share", "ratio"),
    ("rates.markov_lower.library_share", "ratio"),
    ("ingest.csv_io.library_share", "ratio"),
    ("trace.overhead_s", "s"),
)

# Per-command metrics, named ``cmd.<role>.<metric>``: the command's
# untraced wall time (source None), or a metric above computed from that
# command's spans alone.  A role the workload does not run reads 0.
PER_COMMAND = (
    ("sweep", "wall_s", "s", None),
    ("optimal", "wall_s", "s", None),
    ("mpe", "wall_s", "s", None),
    ("gen_synthetic", "wall_s", "s", None),
    ("ingest", "wall_s", "s", None),
    ("sweep", "markov_lower_share", "ratio", "rates.markov_lower.library_share"),
    ("optimal", "optimal_allocation_share", "ratio", "alloc.optimal_allocation.library_share"),
    ("mpe", "markov_lower_share", "ratio", "rates.markov_lower.library_share"),
    ("mpe", "markov_used_ratio", "ratio", "rates.markov_lower.used_ratio"),
)

# Functions the metrics above read; the ones the package no longer defines
# are reported as absent.
FUNCTIONS = (
    "specfun.gamma_expectation",
    "specfun.reg_gamma_q",
    "alloc.optimal_allocation",
    "alloc.waterfill",
    "rates.markov_lower",
    "rates.evaluate_bounds",
    "rates.exact_rate",
    "rates.awgn_reference",
    "channel.build_decay_profile",
    "channel.fit_gamma_moments",
    "ingest.write_channel_csv",
    "ingest.parse_channel_csv",
    "ingest.generate_snapshots",
    "ingest.normalize_unit_mean",
    "ingest.simo_gains",
    "cli.main",
)


class Spans:
    """The spans of several traced processes, concatenated."""

    def __init__(self, paths: list[Path]):
        keys = ("start", "end", "name", "parent", "nodes", "max_rule",
                "mem_span", "mem_entry", "mem_peak")
        parts = {key: [] for key in keys}
        index: dict[str, int] = {}
        offset = 0
        for path in paths:
            with np.load(path) as data:
                arrays = {key: data[key] for key in keys}
                names = data["names"].tolist()
            # Per-process name ids and span indices become global ones.
            remap = np.array([index.setdefault(q, len(index)) for q in names], dtype=np.int64)
            arrays["name"] = remap[arrays["name"]]
            parent = arrays["parent"].astype(np.int64)
            arrays["parent"] = np.where(parent >= 0, parent + offset, -1)
            arrays["mem_span"] = arrays["mem_span"].astype(np.int64) + offset
            offset += arrays["start"].size
            for key in keys:
                parts[key].append(arrays[key])
        self.index = index
        for key in keys:
            setattr(self, key, np.concatenate(parts[key]))
        self.dur = self.end - self.start
        linked = self.parent >= 0
        children = np.bincount(
            self.parent[linked], weights=self.dur[linked], minlength=self.dur.size
        )
        self.self_time = self.dur - children
        layer_of_name = np.array([LAYERS.index(q.split(".")[0]) for q in index] + [-1])
        self.layer = layer_of_name[self.name]

    def mask(self, qualname: str) -> np.ndarray:
        nid = self.index.get(qualname)
        if nid is None:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == nid

    def calls(self, qualname: str) -> int:
        return int(self.mask(qualname).sum())

    def total(self, qualname: str) -> float:
        return float(self.dur[self.mask(qualname)].sum())

    def self_s(self, qualname: str) -> float:
        return float(self.self_time[self.mask(qualname)].sum())

    def calls_under(self, qualname: str, ancestor: str) -> int:
        """Calls of ``qualname`` made, directly or not, from inside ``ancestor``."""
        aid = self.index.get(ancestor)
        cur = self.parent[self.mask(qualname)]
        if aid is None or cur.size == 0:
            return 0
        found = np.zeros(cur.size, dtype=bool)
        while np.any(cur >= 0):
            live = cur >= 0
            found[live] |= self.name[cur[live]] == aid
            cur = np.where(live, self.parent[np.maximum(cur, 0)], -1)
        return int(found.sum())

    def peak_rss_growth_mb(self, qualname: str) -> float:
        nid = self.index.get(qualname)
        if nid is None or self.mem_span.size == 0:
            return 0.0
        hit = self.name[self.mem_span] == nid
        if not np.any(hit):
            return 0.0
        return float(np.max(self.mem_peak[hit] - self.mem_entry[hit])) / MB

    def library_s(self) -> float:
        is_cli = self.layer == LAYERS.index("cli")
        parent_cli = np.zeros(self.dur.size, dtype=bool)
        linked = self.parent >= 0
        parent_cli[linked] = is_cli[self.parent[linked]]
        top = ~is_cli & (~linked | parent_cli)
        return float(self.dur[top].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def summarize(
    span_files: list[Path],
    csv_bytes: int,
    output_bytes: int,
    markov_written: int,
    overhead_s: float,
) -> tuple[dict, list[str]]:
    """Per-layer metric values and the list of absent functions."""
    sp = Spans(span_files)
    absent = [q for q in FUNCTIONS if q not in sp.index]
    ge = "specfun.gamma_expectation"
    ge_mask = sp.mask(ge)
    ge_calls = int(ge_mask.sum())
    nodes = int(sp.nodes[ge_mask].sum())
    library = sp.library_s()
    write_s = sp.total("ingest.write_channel_csv")
    parse_s = sp.total("ingest.parse_channel_csv")
    markov_calls = sp.calls("rates.markov_lower")
    values = {
        "specfun.gamma_expectation.calls": ge_calls,
        "specfun.gamma_expectation.self_s": sp.self_s(ge),
        "specfun.gamma_expectation.nodes": nodes,
        "specfun.gamma_expectation.nodes_per_call": _ratio(nodes, ge_calls),
        "specfun.gamma_expectation.at_node_cap": int(
            np.count_nonzero(sp.max_rule[ge_mask] >= NODE_CAP)
        ),
        "specfun.reg_gamma_q.calls": sp.calls("specfun.reg_gamma_q"),
        "specfun.reg_gamma_q.self_s": sp.self_s("specfun.reg_gamma_q"),
        "alloc.optimal_allocation.calls": sp.calls("alloc.optimal_allocation"),
        "alloc.optimal_allocation.total_s": sp.total("alloc.optimal_allocation"),
        "alloc.optimal_allocation.self_s": sp.self_s("alloc.optimal_allocation"),
        "alloc.optimal_allocation.gamma_expectation_calls": sp.calls_under(
            ge, "alloc.optimal_allocation"
        ),
        "alloc.waterfill.calls": sp.calls("alloc.waterfill"),
        "alloc.waterfill.self_s": sp.self_s("alloc.waterfill"),
        "alloc.waterfill.calls_per_evaluate_bounds": _ratio(
            sp.calls("alloc.waterfill"), sp.calls("rates.evaluate_bounds")
        ),
        "rates.markov_lower.total_s": sp.total("rates.markov_lower"),
        "rates.markov_lower.self_s": sp.self_s("rates.markov_lower"),
        "rates.markov_lower.reg_gamma_q_calls": sp.calls_under(
            "specfun.reg_gamma_q", "rates.markov_lower"
        ),
        "rates.markov_lower.used_ratio": _ratio(markov_written, markov_calls),
        "rates.evaluate_bounds.total_s": sp.total("rates.evaluate_bounds"),
        "rates.exact_rate.total_s": sp.total("rates.exact_rate"),
        "rates.awgn_reference.calls": sp.calls("rates.awgn_reference"),
        "channel.build_decay_profile.self_s": sp.self_s("channel.build_decay_profile"),
        "channel.fit_gamma_moments.calls": sp.calls("channel.fit_gamma_moments"),
        "channel.fit_gamma_moments.self_s": sp.self_s("channel.fit_gamma_moments"),
        "ingest.write_channel_csv.total_s": write_s,
        "ingest.write_channel_csv.mb_per_s": _ratio(csv_bytes / MB, write_s),
        "ingest.write_channel_csv.peak_rss_growth_mb": sp.peak_rss_growth_mb(
            "ingest.write_channel_csv"
        ),
        "ingest.parse_channel_csv.total_s": parse_s,
        "ingest.parse_channel_csv.mb_per_s": _ratio(csv_bytes / MB, parse_s),
        "ingest.parse_channel_csv.peak_rss_growth_mb": sp.peak_rss_growth_mb(
            "ingest.parse_channel_csv"
        ),
        "ingest.generate_snapshots.self_s": sp.self_s("ingest.generate_snapshots"),
        "ingest.normalize_unit_mean.self_s": sp.self_s("ingest.normalize_unit_mean"),
        "ingest.simo_gains.self_s": sp.self_s("ingest.simo_gains"),
        "cli.main.total_s": sp.total("cli.main"),
        "cli.output_bytes": output_bytes,
        "library.total_s": library,
        "alloc.optimal_allocation.library_share": _ratio(
            sp.total("alloc.optimal_allocation"), library
        ),
        "rates.markov_lower.library_share": _ratio(sp.total("rates.markov_lower"), library),
        "ingest.csv_io.library_share": _ratio(write_s + parse_s, library),
        "trace.overhead_s": overhead_s,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = float(sp.self_time[sp.layer == LAYERS.index(layer)].sum())
    return {name: values[name] for name, _ in PER_LAYER}, absent
