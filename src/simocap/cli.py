"""Batch experiment runner: subcommands producing plot-ready CSV/JSON.

Subcommands: ``waterfill`` (one-shot allocation table), ``bounds-sweep``
(bounds vs SNR), ``mpe-study`` (bound gap vs diversity order),
``gen-synthetic`` (channel CSV generator), and ``ingest`` (measured-data
statistics).  A config command reads the ``ExperimentConfig`` fields that
``COMMAND_FIELDS`` lists for it, as JSON keys that its flags override, and
echoes them into a ``<output>.meta.json`` sidecar so any output file can be
reproduced; a key or flag of another command is an input error.

Exit codes: 0 success, 2 input or validation error, 3 output error,
4 numeric non-convergence.  Outputs are byte-identical for identical
(config, seed).
"""

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .alloc import waterfill
from .channel import build_decay_profile, fit_gamma_moments
from .ingest import (
    generate_snapshots,
    parse_channel_csv,
    pooled_mean_gain,
    simo_gains,
    write_channel_csv,
    _write_atomic,
)
from .rates import LN2, MetricUndefinedError, _alpha, mpe_slope, rate_table
from .specfun import NumericError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_OUTPUT = 3
EXIT_NUMERIC = 4

NOISE_VAR = 1.0

# what the sidecar of a command that writes rates says they mean
_RATE_NOTES = {
    "snr_definition": (
        "snr_db = 10*log10(p_total / (n_bins * n0)): average per-subchannel "
        "transmit SNR under the unit-average mean-gain normalization"
    ),
    "awgn_normalizer": (
        "capacity of the deterministic parallel channel with gains fixed at the "
        "mean gains, under waterfilled power (equals the Jensen upper bound at "
        "the statistical-waterfilling allocation)"
    ),
    "upper_bound": "Jensen bound at the statistical-waterfilling allocation",
}

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


# the fields each config command reads: the channel profile, the output path and its own
_PROFILE = ("f_lo_hz", "f_hi_hz", "n_bins", "decay_exponent", "m", "l_values", "output_path")
COMMAND_FIELDS = {
    "bounds-sweep": _PROFILE + ("snr_db_values", "strategies", "a_rule", "rate_units"),
    "mpe-study": _PROFILE + ("snr_db_values", "rate_units"),
    "gen-synthetic": _PROFILE + ("n_snapshots", "seed"),
}

# each field's flag, --<field name with dashes> but for two, and what it needs beyond its type
_FLAGS = {f.name: "--" + f.name.replace("_", "-") for f in fields(ExperimentConfig)}
_FLAGS.update(snr_db_values="--snr-db", output_path="--output")
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
    name, _, value = a_rule.partition("=")
    try:
        alpha = float(value) if name == "alpha" else None
    except ValueError:  # not a number
        alpha = None
    if alpha is None:
        raise ValueError(f"a_rule must be 'max' or 'alpha=<value>', got {a_rule!r}")
    return _alpha(alpha)


def _parse_list(flag: str, text: str, typ) -> list:
    try:
        items = [typ(part) for part in text.split(",")]
    except ValueError:  # an item that is not of the type, such as an empty number
        items = [""]
    if "" in items:
        raise ValueError(f"{flag} must be comma-separated {_TYPE_NAMES[typ]}s, got {text!r}")
    return items


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
    choices = _FLAG_OPTIONS.get(f.name, {}).get("choices")
    if choices and value not in choices:
        raise ValueError(f"config field {f.name!r} must be one of {choices}, got {value!r}")


def _load_config(args: argparse.Namespace, overrides: dict | None = None) -> ExperimentConfig:
    cfg = ExperimentConfig(**(overrides or {}))
    read = COMMAND_FIELDS[args.command]
    config_fields = {f.name: f for f in fields(ExperimentConfig) if f.name in read}
    if args.config:
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
                raise ValueError(f"{args.command} reads no config field {key!r}")
            _check_config_field(config_fields[key], value)
            setattr(cfg, key, value)
    for key, f in config_fields.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            # argparse converts the scalar flags; list flags are comma-separated
            if get_origin(f.type) is list:
                flag_value = _parse_list(_FLAGS[key], flag_value, *get_args(f.type))
            setattr(cfg, key, flag_value)
    # every other value is checked before any write by the library call that reads it
    if args.command != "mpe-study" and len(cfg.l_values) != 1:
        raise ValueError(f"{args.command} takes exactly one l_values entry, got {cfg.l_values}")
    if not cfg.output_path:
        raise ValueError("an output path is required (--output)")
    return cfg


def _profile_channel(cfg: ExperimentConfig, L: int):
    return build_decay_profile(
        cfg.n_bins, cfg.f_lo_hz, cfg.f_hi_hz, cfg.decay_exponent, cfg.m, L=L, n0=NOISE_VAR
    )


def _write_csv(cfg: ExperimentConfig, table, header) -> None:
    # the table's header columns, one line per row in order of its first two columns; rates
    # are computed in nats, and in bits the rate columns are divided by ln 2
    rows = sorted(zip(*(table[col].tolist() for col in header)), key=lambda row: row[:2])
    to_bits = [cfg.rate_units == "bits" and col in RATE_COLUMNS for col in header]
    lines = [",".join(header)]
    lines.extend(
        ",".join(str(v / LN2 if bits else v) for v, bits in zip(row, to_bits))
        for row in rows
    )
    _write_atomic(cfg.output_path, "\n".join(lines) + "\n")


def _write_sidecar(cfg: ExperimentConfig, command: str, **extra):
    meta = {
        "command": command,
        "config": {name: getattr(cfg, name) for name in COMMAND_FIELDS[command]},
        "noise_variance": NOISE_VAR,
        "version": __version__,
        **extra,
    }
    if "rate_units" in meta["config"]:
        meta.update(rate_units=cfg.rate_units, **_RATE_NOTES)
    _write_atomic(cfg.output_path + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_waterfill(args) -> int:
    means = _parse_list("--means", args.means, float)
    powers, water_level = waterfill(means, args.n0, args.p_total)
    print("subchannel,gain,power")
    for i, (g, p) in enumerate(zip(means, powers)):
        print(f"{i},{float(g)!r},{float(p)!r}")
    active = int(np.count_nonzero(powers > 0.0))
    print(f"water_level = {float(water_level)!r}")
    print(f"active_subchannels = {active} / {powers.size}")
    return EXIT_OK


def cmd_bounds_sweep(args) -> int:
    cfg = _load_config(args)
    table = rate_table(
        lambda L: _profile_channel(cfg, L), cfg.l_values, cfg.snr_db_values, cfg.strategies,
        alpha=_parse_a_rule(cfg.a_rule),
    )
    c_awgn = table["c_upper"]  # the table's upper bound is the AWGN reference
    table.update(
        c_awgn_ref=c_awgn,
        normalized_upper=table["c_upper"] / c_awgn,
        normalized_lower=table["c_lower_exact"] / c_awgn,
    )
    _write_csv(cfg, table, BOUNDS_COLUMNS)
    _write_sidecar(cfg, "bounds-sweep")
    return EXIT_OK


def cmd_mpe_study(args) -> int:
    defaults = {"snr_db_values": [-10.0, 5.0], "l_values": [1, 2, 4, 8, 16]}
    cfg = _load_config(args, overrides=defaults)
    table = rate_table(
        lambda L: _profile_channel(cfg, L), cfg.l_values, cfg.snr_db_values,
        ["statistical-waterfill"], markov=False,
    )
    # the grid runs over L, then SNR: one column of MPEs per SNR
    mpe_by_snr = table["mpe_percent"].reshape(-1, len(cfg.snr_db_values)).T
    slopes = {}
    for snr, mpes in zip(map(float, cfg.snr_db_values), mpe_by_snr):
        try:
            slopes[repr(snr)] = mpe_slope(cfg.l_values, mpes)
        except MetricUndefinedError as exc:
            raise MetricUndefinedError(f"{exc} at SNR {snr!r} dB") from None
    _write_csv(cfg, table, MPE_COLUMNS)
    _write_sidecar(cfg, "mpe-study", mpe_slope_by_snr_db=slopes)
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    cfg = _load_config(args)
    ch = _profile_channel(cfg, int(cfg.l_values[0]))
    branches = int(cfg.l_values[0]) if args.branches is None else args.branches
    snapshots = generate_snapshots(ch, cfg.n_snapshots, cfg.seed, branches)
    write_channel_csv(snapshots, cfg.output_path)
    _write_sidecar(cfg, "gen-synthetic", branches=snapshots.branches)
    return EXIT_OK


def cmd_ingest(args) -> int:
    ids = None if args.branches is None else _parse_list("--branches", args.branches, int)
    try:
        raw = parse_channel_csv(args.input, f_min_hz=args.f_min_hz, f_max_hz=args.f_max_hz)
    except OSError as exc:  # an unreadable input is an input error, not an output error
        raise ValueError(f"cannot read {args.input}: {exc}") from exc
    pooled = pooled_mean_gain(raw)
    branch_ids = list(range(raw.branches)) if ids is None else ids
    gains = simo_gains(raw, branch_ids) / pooled
    # a bin with no fit (NaN) is written as null
    fit_shape, fit_scale = (
        np.where(np.isnan(fit), None, fit).tolist() for fit in fit_gamma_moments(gains)
    )
    columns = {
        "bin": range(raw.n_bins),
        "freq_hz": raw.freqs_hz.tolist(),
        "mean_gain": gains.mean(axis=0).tolist(),
        "fit_shape": fit_shape,
        "fit_scale": fit_scale,
    }
    bins = [dict(zip(columns, row)) for row in zip(*columns.values())]
    stats = {
        "snapshots": raw.snapshots,
        "branches_in_file": raw.branches,
        "branches_used": branch_ids,
        "n_bins": raw.n_bins,
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


def _add_config_flags(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    for f in fields(ExperimentConfig):
        if f.name in COMMAND_FIELDS[command]:
            # list flags stay text until _load_config splits them
            typ = str if get_origin(f.type) is list else f.type
            sub.add_argument(_FLAGS[f.name], dest=f.name, type=typ, **_FLAG_OPTIONS.get(f.name, {}))


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
    _add_config_flags(p_bs, "bounds-sweep")
    p_bs.set_defaults(handler=cmd_bounds_sweep)

    p_mpe = subparsers.add_parser("mpe-study", help="bound gap versus diversity order (CSV)")
    _add_config_flags(p_mpe, "mpe-study")
    p_mpe.set_defaults(handler=cmd_mpe_study)

    p_gen = subparsers.add_parser("gen-synthetic", help="generate a synthetic channel CSV")
    _add_config_flags(p_gen, "gen-synthetic")
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
    args, unread = parser.parse_known_args(argv)
    if unread:  # a flag of another command, or none at all
        parser.error(f"{args.command}: unrecognized arguments: {' '.join(unread)}")
    try:
        return args.handler(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, MemoryError) as exc:  # MemoryError: an input too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
