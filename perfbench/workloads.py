"""The benchmark workloads: CLI commands made from a seed, and their checks.

The seed jitters every SNR grid point by up to +-0.5 dB and is the
``gen-synthetic --seed``, so the work done, and so the run time, barely
depends on it.  Each command's ``check`` returns the problems found in its
outputs; an empty list means they are correct.  At the
default seed the outputs are also compared with the references in
``reference/``, which ``make_reference.py`` generated from the library
itself.  At every seed the invariants below hold.
"""

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RATE_REL_TOL = 1e-9  # the library's quadrature tolerance
DERIVED_REL_TOL = 1e-12
INGEST_REL_TOL = 1e-12

BOUNDS_COLUMNS = [
    "snr_db",
    "strategy",
    "c_upper",
    "c_lower_exact",
    "c_lower_markov",
    "c_awgn_ref",
    "normalized_upper",
    "normalized_lower",
    "mpe_percent",
]
BOUNDS_RATES = ("c_upper", "c_lower_exact", "c_lower_markov", "c_awgn_ref")
MPE_COLUMNS = ["L", "snr_db", "c_upper", "c_lower_exact", "mpe_percent"]
MPE_RATES = ("c_upper", "c_lower_exact")
CHANNEL_HEADER = b"snapshot,branch,bin,freq_hz,re,im\n"

INGEST_BINS = 588
INGEST_BRANCHES = 4
INGEST_SNAPSHOTS = 49


@dataclass(frozen=True)
class Command:
    role: str  # short name of the command within its workload
    argv: list[str]  # CLI arguments, subcommand first
    outputs: list[str]  # files the command must leave, non-empty
    check: Callable[[], list[str]]  # problems in those files


@dataclass(frozen=True)
class Workload:
    name: str
    commands: list[Command]  # run in order
    channel_csv: str = ""  # the channel CSV written and read, if any


def _jitter(seed: int, name: str, grid: list[float]) -> list[float]:
    rng = random.Random(f"{name}:{seed}")
    return [round(s + rng.uniform(-0.5, 0.5), 6) for s in grid]


def _snr_flag(values: list[float]) -> str:
    return "--snr-db=" + ",".join(repr(v) for v in values)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) or a == b


def _read_csv(path: Path, columns: list[str]) -> tuple[list[dict], list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != columns:
            return [], [f"{path.name}: header {header} != {columns}"]
        return [dict(zip(columns, row)) for row in reader], []


def _floats(row: dict, columns) -> dict:
    return {c: float(row[c]) for c in columns}


def _rows_match_reference(rows, ref_rows, key, columns, label) -> list[str]:
    ref = {key(r): r for r in ref_rows}
    problems = []
    for row in rows:
        want = ref.get(key(row))
        if want is None:
            problems.append(f"{label}: row {key(row)} not in the reference")
            continue
        for c in columns:
            if not _close(float(row[c]), float(want[c]), RATE_REL_TOL):
                problems.append(f"{label}: {key(row)} {c} {row[c]} != reference {want[c]}")
    return problems


def _check_bounds_csv(path: Path, snrs, strategies, reference: str | None) -> list[str]:
    rows, problems = _read_csv(path, BOUNDS_COLUMNS)
    if problems:
        return problems
    want = sorted((float(s), t) for s in snrs for t in strategies)
    got = sorted((float(r["snr_db"]), r["strategy"]) for r in rows)
    if got != want:
        return [f"{path.name}: {len(rows)} rows, want one per (snr, strategy): {len(want)}"]
    for row in rows:
        v = _floats(row, BOUNDS_COLUMNS[2:])
        tag = f"{path.name} snr={row['snr_db']} {row['strategy']}"
        if not all(math.isfinite(x) for x in v.values()):
            problems.append(f"{tag}: non-finite value")
            continue
        if not (v["c_lower_markov"] <= v["c_lower_exact"] <= v["c_upper"]):
            problems.append(f"{tag}: Markov <= exact <= upper violated")
        if not _close(v["normalized_upper"], 1.0, DERIVED_REL_TOL):
            problems.append(f"{tag}: normalized_upper {v['normalized_upper']} != 1")
        if not _close(v["normalized_upper"], v["c_upper"] / v["c_awgn_ref"], DERIVED_REL_TOL):
            problems.append(f"{tag}: normalized_upper != c_upper / c_awgn_ref")
        if not _close(
            v["normalized_lower"], v["c_lower_exact"] / v["c_awgn_ref"], DERIVED_REL_TOL
        ):
            problems.append(f"{tag}: normalized_lower != c_lower_exact / c_awgn_ref")
        mpe = 100.0 * (v["c_upper"] - v["c_lower_exact"]) / v["c_lower_exact"]
        if not _close(v["mpe_percent"], mpe, RATE_REL_TOL):
            problems.append(f"{tag}: mpe_percent {v['mpe_percent']} != {mpe}")
    if reference:
        ref_rows, _ = _read_csv(REFERENCE_DIR / reference, BOUNDS_COLUMNS)
        problems += _rows_match_reference(
            rows, ref_rows, lambda r: (r["snr_db"], r["strategy"]), BOUNDS_RATES, path.name
        )
    return problems


def sweep_64(seed: int, work: Path) -> Command:
    snrs = _jitter(seed, "sweep-64", [float(s) for s in range(-20, 21)])
    strategies = ["statistical-waterfill", "equal"]
    out = work / "sweep-64.csv"
    reference = "sweep-64.csv" if seed == DEFAULT_SEED else None
    command = [
        "bounds-sweep", "--n-bins", "64", _snr_flag(snrs),
        "--strategies", ",".join(strategies), "--a-rule", "max", "--output", str(out),
    ]

    def check() -> list[str]:
        return _check_bounds_csv(out, snrs, strategies, reference)

    return Command("sweep", command, [str(out)], check)


def optimal_64(seed: int, work: Path) -> Command:
    snrs = _jitter(seed, "optimal-64", [0.0])
    strategies = ["statistical-waterfill", "optimal"]
    out = work / "optimal-64.csv"
    reference = "optimal-64.csv" if seed == DEFAULT_SEED else None
    command = [
        "bounds-sweep", "--n-bins", "64", _snr_flag(snrs),
        "--strategies", ",".join(strategies), "--output", str(out),
    ]

    def check() -> list[str]:
        problems = _check_bounds_csv(out, snrs, strategies, reference)
        if problems:
            return problems
        rows, _ = _read_csv(out, BOUNDS_COLUMNS)
        for snr in snrs:
            exact = {
                r["strategy"]: float(r["c_lower_exact"])
                for r in rows
                if float(r["snr_db"]) == snr
            }
            # The distribution-aware optimum beats statistical waterfilling by
            # ~1e-6 relative near 0 dB, far above the quadrature tolerance, so
            # a solver that returns the waterfilling powers fails here.
            if not exact["optimal"] > exact["statistical-waterfill"] * (1.0 + RATE_REL_TOL):
                problems.append(
                    f"snr={snr}: optimal exact rate {exact['optimal']!r} does not beat "
                    f"statistical waterfilling {exact['statistical-waterfill']!r}"
                )
        return problems

    return Command("optimal", command, [str(out)], check)


def mpe_64(seed: int, work: Path) -> Command:
    snrs = _jitter(seed, "mpe-64", [-10.0, 5.0])
    l_values = [1, 2, 4, 8, 16, 32, 64]
    out = work / "mpe-64.csv"
    reference = "mpe-64.csv" if seed == DEFAULT_SEED else None
    command = [
        "mpe-study", "--n-bins", "64", "--l-values", ",".join(map(str, l_values)),
        _snr_flag(snrs), "--output", str(out),
    ]

    def check() -> list[str]:
        rows, problems = _read_csv(out, MPE_COLUMNS)
        if problems:
            return problems
        want = sorted((L, float(s)) for L in l_values for s in snrs)
        got = sorted((int(r["L"]), float(r["snr_db"])) for r in rows)
        if got != want:
            return [f"{out.name}: {len(rows)} rows, want one per (L, snr): {len(want)}"]
        for row in rows:
            v = _floats(row, MPE_COLUMNS[2:])
            tag = f"{out.name} L={row['L']} snr={row['snr_db']}"
            if not all(math.isfinite(x) for x in v.values()):
                problems.append(f"{tag}: non-finite value")
                continue
            if not (0.0 < v["c_lower_exact"] <= v["c_upper"]):
                problems.append(f"{tag}: 0 < exact <= upper violated")
            mpe = 100.0 * (v["c_upper"] - v["c_lower_exact"]) / v["c_lower_exact"]
            if not _close(v["mpe_percent"], mpe, RATE_REL_TOL):
                problems.append(f"{tag}: mpe_percent {v['mpe_percent']} != {mpe}")
        try:
            with open(str(out) + ".meta.json", encoding="utf-8") as fh:
                slopes = json.load(fh)["mpe_slope_by_snr_db"]
        except (OSError, ValueError, KeyError) as exc:
            return problems + [f"{out.name}.meta.json: no MPE slopes ({exc})"]
        if sorted(slopes) != sorted(repr(float(s)) for s in snrs):
            problems.append(f"sidecar slope keys {sorted(slopes)} do not match the SNRs")
        for snr in snrs:
            slope = slopes.get(repr(float(snr)))
            pts = [r for r in rows if float(r["snr_db"]) == snr]
            fit = np.polyfit(
                np.log([float(r["L"]) for r in pts]),
                np.log([float(r["mpe_percent"]) for r in pts]),
                1,
            )[0]
            if not (isinstance(slope, float) and math.isfinite(slope)):
                problems.append(f"snr={snr}: MPE slope {slope!r} is not finite")
            elif not _close(slope, float(fit), RATE_REL_TOL):
                problems.append(f"snr={snr}: MPE slope {slope!r} != fit of the CSV {fit!r}")
        if reference:
            ref_rows, _ = _read_csv(REFERENCE_DIR / reference, MPE_COLUMNS)
            problems += _rows_match_reference(
                rows, ref_rows, lambda r: (r["L"], r["snr_db"]), MPE_RATES, out.name
            )
        return problems

    return Command("mpe", command, [str(out)], check)


def compute_64(seed: int, work: Path) -> Workload:
    """The three 64-bin compute commands, one after the other."""
    return Workload(
        "compute-64", [sweep_64(seed, work), optimal_64(seed, work), mpe_64(seed, work)]
    )


def _compare_json(got, want, path: str) -> list[str]:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if _close(float(got), want, INGEST_REL_TOL) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in want for p in _compare_json(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _compare_json(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _check_channel_csv(path: Path, reference_sha: str | None, seen: dict) -> list[str]:
    data = path.read_bytes()
    problems = []
    if not data.startswith(CHANNEL_HEADER):
        problems.append(f"{path.name}: header differs from {CHANNEL_HEADER!r}")
    rows = data.count(b"\n") - 1
    want_rows = INGEST_BINS * INGEST_BRANCHES * INGEST_SNAPSHOTS
    if rows != want_rows:
        problems.append(f"{path.name}: {rows} data rows, want {want_rows}")
    sha = hashlib.sha256(data).hexdigest()
    if reference_sha and sha != reference_sha:
        problems.append(f"{path.name}: SHA-256 {sha} != reference {reference_sha}")
    # The writer's format is a contract: one seed always gives the same bytes.
    if seen.setdefault("sha", sha) != sha:
        problems.append(f"{path.name}: SHA-256 changed between runs of one seed")
    return problems


def _check_ingest_json(path: Path, reference: str | None) -> list[str]:
    try:
        stats = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"{path.name}: invalid JSON ({exc})"]
    problems = []
    expect = {
        "snapshots": INGEST_SNAPSHOTS,
        "branches_in_file": INGEST_BRANCHES,
        "branches_used": list(range(INGEST_BRANCHES)),
        "n_bins": INGEST_BINS,
    }
    for key, value in expect.items():
        if stats.get(key) != value:
            problems.append(f"{path.name}: {key} = {stats.get(key)!r}, want {value!r}")
    bins = stats.get("bins", [])
    if len(bins) != INGEST_BINS:
        return problems + [f"{path.name}: {len(bins)} bins, want {INGEST_BINS}"]
    means = [b["mean_gain"] for b in bins]
    freqs = [b["freq_hz"] for b in bins]
    if [b["bin"] for b in bins] != list(range(INGEST_BINS)):
        problems.append(f"{path.name}: bin indices are not 0..{INGEST_BINS - 1}")
    if not all(math.isfinite(m) and m > 0.0 for m in means):
        problems.append(f"{path.name}: a mean gain is not positive and finite")
    if not all(b > a for a, b in zip(freqs, freqs[1:])):
        problems.append(f"{path.name}: bin frequencies are not increasing")
    for b in bins:
        shape, scale = b["fit_shape"], b["fit_scale"]
        if not (isinstance(shape, float) and shape > 0.0 and isinstance(scale, float) and scale > 0.0):
            problems.append(f"{path.name}: bin {b['bin']} has no positive gamma fit")
            break
        if not _close(shape * scale, b["mean_gain"], 1e-9):
            problems.append(f"{path.name}: bin {b['bin']} fit mean != mean gain")
            break
    # Unit pooled mean over (snapshot, branch, bin) after normalization, and
    # every branch combined, make the bins' mean SIMO gain the branch count.
    if not _close(sum(means) / len(means), float(INGEST_BRANCHES), 1e-9):
        problems.append(f"{path.name}: mean SIMO gain {sum(means) / len(means)} != {INGEST_BRANCHES}")
    pooled = stats.get("pooled_mean_gain_before_normalization", 0.0)
    scale = stats.get("normalization_scale_on_power", 0.0)
    if not _close(pooled * scale, 1.0, DERIVED_REL_TOL):
        problems.append(f"{path.name}: normalization scale is not 1 / pooled mean gain")
    if reference:
        want = json.loads((REFERENCE_DIR / reference).read_text(encoding="utf-8"))
        problems += _compare_json(stats, want, path.name)[:5]
    return problems


def ingest_588(seed: int, work: Path) -> Workload:
    channel = work / "ingest-588-channel.csv"
    out = work / "ingest-588.json"
    default = seed == DEFAULT_SEED
    gen = [
        "gen-synthetic", "--n-bins", str(INGEST_BINS), "--l-values", str(INGEST_BRANCHES),
        "--n-snapshots", str(INGEST_SNAPSHOTS), "--seed", str(seed),
        "--branches", str(INGEST_BRANCHES), "--output", str(channel),
    ]
    ingest = [
        "ingest", "--input", str(channel),
        "--branches", ",".join(map(str, range(INGEST_BRANCHES))), "--output", str(out),
    ]
    seen: dict = {}

    def check_channel() -> list[str]:
        sha_file = REFERENCE_DIR / "ingest-588-channel.csv.sha256"
        reference_sha = sha_file.read_text().split()[0] if default else None
        return _check_channel_csv(channel, reference_sha, seen)

    def check_stats() -> list[str]:
        return _check_ingest_json(out, "ingest-588.json" if default else None)

    return Workload(
        "ingest-588",
        [
            Command("gen_synthetic", gen, [str(channel)], check_channel),
            Command("ingest", ingest, [str(out)], check_stats),
        ],
        str(channel),
    )


WORKLOADS = {
    "compute-64": compute_64,
    "ingest-588": ingest_588,
}
