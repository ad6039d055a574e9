"""Batch experiment runner: subcommands producing plot-ready CSV/JSON.

Subcommands: ``waterfill`` (one-shot allocation table), ``bounds-sweep``
(bounds vs SNR), ``mpe-study`` (bound gap vs diversity order),
``gen-synthetic`` (channel CSV generator), and ``ingest`` (measured-data
statistics).  Configuration is a JSON document whose fields individual
command-line flags override; every effective value is echoed into a
``<output>.meta.json`` sidecar so any output file can be reproduced.

Exit codes: 0 success, 2 input or validation error, 3 output error,
4 numeric non-convergence.  Outputs are byte-identical for identical
(config, seed).
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .alloc import waterfill
from .channel import FitError, build_decay_profile, fit_gamma_moments
from .ingest import (
    empirical_means,
    generate_snapshots,
    normalize_unit_mean,
    parse_channel_csv,
    pooled_mean_gain,
    simo_gains,
    write_channel_csv,
    _write_atomic,
)
from .rates import (
    LN2,
    STRATEGY_TAGS,
    convergence_study,
    evaluate_bounds,
    resolve_strategy,
    snr_db_to_power,
)
from .specfun import NumericError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_OUTPUT = 3
EXIT_NUMERIC = 4

NOISE_VAR = 1.0

_SNR_DEFINITION = (
    "snr_db = 10*log10(p_total / (n_bins * n0)): average per-subchannel "
    "transmit SNR under the unit-average mean-gain normalization"
)
_AWGN_NORMALIZER = (
    "capacity of the deterministic parallel channel with gains fixed at the "
    "mean gains, under waterfilled power (equals the Jensen upper bound at "
    "the statistical-waterfilling allocation)"
)

BOUNDS_COLUMNS = (
    "snr_db",
    "strategy",
    "c_upper",
    "c_lower_exact",
    "c_lower_markov",
    "c_awgn_ref",
    "normalized_upper",
    "normalized_lower",
    "mpe_percent",
)
MPE_COLUMNS = ("L", "snr_db", "c_upper", "c_lower_exact", "mpe_percent")
RATE_COLUMNS = ("c_upper", "c_lower_exact", "c_lower_markov", "c_awgn_ref")


@dataclass
class ExperimentConfig:
    f_lo_hz: float = 5e9
    f_hi_hz: float = 6e9
    n_bins: int = 64
    decay_exponent: float = 3.0
    m: float = 1.0
    l_values: list[int] = field(default_factory=lambda: [4])
    snr_db_values: list[float] = field(default_factory=lambda: [float(s) for s in range(-20, 21)])
    n_snapshots: int = 441
    seed: int = 0
    strategies: list[str] = field(default_factory=lambda: ["statistical-waterfill", "equal"])
    a_rule: str = "max"
    rate_units: str = "nats"
    output_path: str = ""

    def validate(self):
        # the band, n_bins, decay exponent and m are checked by build_decay_profile,
        # which every config command calls before it writes anything
        if not self.l_values or any(int(v) != v or v < 1 for v in self.l_values):
            raise ValueError("l_values must be a non-empty list of positive integers")
        if not self.snr_db_values:
            raise ValueError("snr_db_values must be non-empty")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be a positive integer")
        if not self.strategies or any(s not in STRATEGY_TAGS for s in self.strategies):
            raise ValueError(f"strategies must be a non-empty subset of {STRATEGY_TAGS}")
        _parse_a_rule(self.a_rule)
        if self.rate_units not in ("nats", "bits"):
            raise ValueError("rate_units must be 'nats' or 'bits'")


# what a field's flag needs beyond --<field name with dashes> and its type
_FLAG_NAMES = {"snr_db_values": "--snr-db", "output_path": "--output"}
_FLAG_OPTIONS = {
    "l_values": {"help": "comma-separated diversity orders"},
    "snr_db_values": {"help": "comma-separated SNR values in dB"},
    "strategies": {"help": "comma-separated strategy tags"},
    "a_rule": {"help": "'max' or 'alpha=<value>'"},
    "rate_units": {"choices": ("nats", "bits")},
    "output_path": {"help": "output file path"},
}
_TYPE_NAMES = {float: "number", int: "integer", str: "string"}


def _parse_a_rule(a_rule: str) -> float | None:
    """'max' selects per-subchannel maximization; 'alpha=X' the closed-form rule."""
    if a_rule == "max":
        return None
    if a_rule.startswith("alpha="):
        alpha = float(a_rule[len("alpha="):])
        if not (0.0 < alpha < 1.0):
            raise ValueError("a_rule alpha must lie strictly between 0 and 1")
        return alpha
    raise ValueError(f"a_rule must be 'max' or 'alpha=<value>', got {a_rule!r}")


def _parse_list(text: str, typ) -> list:
    return [typ(part) for part in text.split(",") if part]


def _is_json_value(typ, value) -> bool:
    # JSON numbers arrive as int or float; an integral float is an integer
    if typ is str:
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return typ is float or float(value).is_integer()


def _check_config_field(f, value) -> None:
    if get_origin(f.type) is list:
        (typ,) = get_args(f.type)
        ok = isinstance(value, list) and all(_is_json_value(typ, v) for v in value)
        kind = f"a list of {_TYPE_NAMES[typ]}s"
    else:
        ok, kind = _is_json_value(f.type, value), f"a {_TYPE_NAMES[f.type]}"
    if not ok:
        raise ValueError(f"config field {f.name!r} must be {kind}, got {value!r}")


def _load_config(args: argparse.Namespace, overrides: dict | None = None) -> ExperimentConfig:
    cfg = ExperimentConfig(**(overrides or {}))
    config_fields = {f.name: f for f in fields(ExperimentConfig)}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {args.config}: {exc}") from exc
        if not isinstance(document, dict):
            raise ValueError("config document must be a JSON object")
        for key, value in document.items():
            if key not in config_fields:
                raise ValueError(f"unknown config field {key!r}")
            _check_config_field(config_fields[key], value)
            setattr(cfg, key, value)
    for key, f in config_fields.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            # argparse converts the scalar flags; list flags are comma-separated
            if get_origin(f.type) is list:
                flag_value = _parse_list(flag_value, *get_args(f.type))
            setattr(cfg, key, flag_value)
    cfg.validate()
    if not cfg.output_path:
        raise ValueError("an output path is required (--output)")
    return cfg


def _profile_channel(cfg: ExperimentConfig, L: int, snr_db: float):
    ch = build_decay_profile(
        n_bins=cfg.n_bins,
        f_lo_hz=cfg.f_lo_hz,
        f_hi_hz=cfg.f_hi_hz,
        decay_exponent=cfg.decay_exponent,
        m=cfg.m,
        L=L,
        n0=NOISE_VAR,
        p_total=1.0,
    )
    return ch.with_power(snr_db_to_power(ch.n, ch.n0, snr_db))


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(cfg: ExperimentConfig, header, rows) -> None:
    # rates are computed in nats; in bits, the rate columns are divided by ln 2
    to_bits = [cfg.rate_units == "bits" and col in RATE_COLUMNS for col in header]
    lines = [",".join(header)]
    lines.extend(
        ",".join(_format_cell(v / LN2 if bits else v) for v, bits in zip(row, to_bits))
        for row in rows
    )
    _write_atomic(cfg.output_path, "\n".join(lines) + "\n")


def _write_sidecar(cfg: ExperimentConfig, command: str, extra: dict | None = None):
    meta = {
        "command": command,
        "config": asdict(cfg),
        "noise_variance": NOISE_VAR,
        "rate_units": cfg.rate_units,
        "snr_definition": _SNR_DEFINITION,
        "awgn_normalizer": _AWGN_NORMALIZER,
        "upper_bound": "Jensen bound at the statistical-waterfilling allocation",
        "version": __version__,
    }
    if extra:
        meta.update(extra)
    _write_atomic(cfg.output_path + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_waterfill(args) -> int:
    try:
        means = _parse_list(args.means, float)
    except ValueError:
        print(f"error: could not parse means {args.means!r}", file=sys.stderr)
        return EXIT_INPUT
    if not means:
        print("error: no means given", file=sys.stderr)
        return EXIT_INPUT
    alloc = waterfill(means, args.n0, args.p_total)
    print("subchannel,gain,power")
    for i, (g, p) in enumerate(zip(means, alloc.powers)):
        print(f"{i},{float(g)!r},{float(p)!r}")
    active = int(np.count_nonzero(alloc.powers > 0.0))
    print(f"water_level = {float(alloc.water_level)!r}")
    print(f"active_subchannels = {active} / {alloc.n}")
    return EXIT_OK


def cmd_bounds_sweep(args) -> int:
    cfg = _load_config(args)
    alpha = _parse_a_rule(cfg.a_rule)
    rows = []
    for snr in map(float, cfg.snr_db_values):
        ch = _profile_channel(cfg, int(cfg.l_values[0]), snr)
        for strategy in cfg.strategies:
            report = evaluate_bounds(ch, resolve_strategy(ch, strategy), snr, alpha=alpha)
            rows.append((snr, strategy, *(getattr(report, col) for col in BOUNDS_COLUMNS[2:])))
    rows.sort(key=lambda row: row[:2])
    _write_csv(cfg, BOUNDS_COLUMNS, rows)
    _write_sidecar(cfg, "bounds-sweep")
    return EXIT_OK


def cmd_mpe_study(args) -> int:
    cfg = _load_config(
        args,
        overrides={"snr_db_values": [-10.0, 5.0], "l_values": [1, 2, 4, 8, 16]},
    )
    rows, slopes = [], {}
    for snr in map(float, cfg.snr_db_values):
        study = convergence_study(
            lambda L: _profile_channel(cfg, L, snr), "statistical-waterfill", cfg.l_values, snr
        )
        rows.extend((p.L, snr, p.c_upper, p.c_lower_exact, p.mpe_percent) for p in study.points)
        slopes[repr(snr)] = study.slope
    rows.sort(key=lambda row: row[:2])
    _write_csv(cfg, MPE_COLUMNS, rows)
    _write_sidecar(cfg, "mpe-study", extra={"mpe_slope_by_snr_db": slopes})
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    cfg = _load_config(args)
    ch = _profile_channel(cfg, int(cfg.l_values[0]), 0.0)
    branches = int(cfg.l_values[0]) if args.branches is None else args.branches
    snapshots = generate_snapshots(ch, cfg.n_snapshots, cfg.seed, branches)
    write_channel_csv(snapshots, cfg.output_path)
    _write_sidecar(cfg, "gen-synthetic", extra={"branches": snapshots.branches})
    return EXIT_OK


def cmd_ingest(args) -> int:
    try:
        raw = parse_channel_csv(args.input, f_min_hz=args.f_min_hz, f_max_hz=args.f_max_hz)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    pooled = pooled_mean_gain(raw)
    normalized = normalize_unit_mean(raw)
    branch_ids = (
        _parse_list(args.branches, int) if args.branches else list(range(normalized.branches))
    )
    gains = simo_gains(normalized, branch_ids)
    means = empirical_means(gains)

    bins = []
    for j in range(normalized.n_bins):
        try:
            fit_shape, fit_scale = fit_gamma_moments(gains.values[:, j])
        except FitError:
            fit_shape = fit_scale = None
        bins.append(
            {
                "bin": j,
                "freq_hz": float(normalized.freqs_hz[j]),
                "mean_gain": float(means[j]),
                "fit_shape": fit_shape,
                "fit_scale": fit_scale,
            }
        )
    stats = {
        "snapshots": raw.snapshots,
        "branches_in_file": raw.branches,
        "branches_used": branch_ids,
        "n_bins": normalized.n_bins,
        "pooled_mean_gain_before_normalization": pooled,
        "normalization_scale_on_power": 1.0 / pooled,
        "normalization": (
            "single scalar applied to all coefficients so the pooled mean of "
            "|h|^2 over snapshots, branches and bins is one; normalization "
            "precedes any branch subsetting"
        ),
        "bins": bins,
    }
    text = json.dumps(stats, indent=2, sort_keys=True) + "\n"
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    for f in fields(ExperimentConfig):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        # list flags stay text until _load_config splits them
        typ = str if get_origin(f.type) is list else f.type
        sub.add_argument(flag, dest=f.name, type=typ, **_FLAG_OPTIONS.get(f.name, {}))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simocap",
        description="Capacity bounds and power loading for parallel SIMO fading channels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_wf = subparsers.add_parser("waterfill", help="print a water-level allocation table")
    p_wf.add_argument("--means", required=True, help="comma-separated subchannel gains")
    p_wf.add_argument("--n0", type=float, default=NOISE_VAR, help="noise variance")
    p_wf.add_argument("--p-total", dest="p_total", type=float, default=1.0, help="power budget")
    p_wf.set_defaults(handler=cmd_waterfill)

    p_bs = subparsers.add_parser("bounds-sweep", help="capacity bounds versus SNR (CSV)")
    _add_config_flags(p_bs)
    p_bs.set_defaults(handler=cmd_bounds_sweep)

    p_mpe = subparsers.add_parser("mpe-study", help="bound gap versus diversity order (CSV)")
    _add_config_flags(p_mpe)
    p_mpe.set_defaults(handler=cmd_mpe_study)

    p_gen = subparsers.add_parser("gen-synthetic", help="generate a synthetic channel CSV")
    _add_config_flags(p_gen)
    branches_help = "branch count (default: L); each bin's Gamma(mL, theta) law is split over them"
    p_gen.add_argument("--branches", type=int, help=branches_help)
    p_gen.set_defaults(handler=cmd_gen_synthetic)

    p_in = subparsers.add_parser("ingest", help="statistics of a measured channel CSV (JSON)")
    p_in.add_argument("--input", required=True, help="channel CSV path")
    p_in.add_argument("--f-min-hz", dest="f_min_hz", type=float, help="inclusive band lower edge")
    p_in.add_argument("--f-max-hz", dest="f_max_hz", type=float, help="inclusive band upper edge")
    p_in.add_argument("--branches", help="comma-separated branch ids (default: all)")
    p_in.add_argument("--output", help="statistics JSON path (default: stdout)")
    p_in.set_defaults(handler=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ParseError, NormalizationError and FitError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
