import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import simocap
from simocap import alloc, cli, rates
from simocap.specfun import NumericError


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_waterfill_prints_hand_solution(capsys):
    rc = cli.main(["waterfill", "--means", "1,2", "--n0", "1", "--p-total", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0,1.0,0.25" in out
    assert "1,2.0,0.75" in out
    assert "water_level = 1.25" in out
    assert "active_subchannels = 2 / 2" in out


def test_waterfill_single_mean_gets_full_budget(capsys):
    rc = cli.main(["waterfill", "--means", "4", "--p-total", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0,4.0,2.0" in out
    assert "active_subchannels = 1 / 1" in out


def test_waterfill_rejects_non_numeric_mean(capsys):
    rc = cli.main(["waterfill", "--means", "1,abc"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds-sweep", "--snr-db=0,,5"], "--snr-db must be comma-separated numbers, got '0,,5'"),
        (["bounds-sweep", "--strategies", "equal,,optimal"],
         "--strategies must be comma-separated strings, got 'equal,,optimal'"),
        (["mpe-study", "--l-values", "1,2.5,4"],
         "--l-values must be comma-separated integers, got '1,2.5,4'"),
        (["waterfill", "--means", "1,,2"], "--means must be comma-separated numbers, got '1,,2'"),
        (["ingest", "--input", "{chan}", "--branches", "0,"],
         "--branches must be comma-separated integers, got '0,'"),
        # the flag is checked before the input is read
        (["ingest", "--input", "{chan}.missing", "--branches", "0,,1"],
         "--branches must be comma-separated integers, got '0,,1'"),
    ],
    ids=["snr-db-empty-item", "strategies-empty-item", "l-values-not-integer", "means-empty-item",
         "branches-empty-item", "branches-before-a-missing-input"],
)
def test_list_flags_with_an_empty_or_malformed_item_exit_2_and_name_the_flag(
    tmp_path, capsys, argv, message
):
    chan = tmp_path / "chan.csv"
    chan.write_text("snapshot,branch,bin,freq_hz,re,im\n0,0,0,5e9,1,0\n")
    out = tmp_path / "out.csv"
    argv = [arg.format(chan=chan) for arg in argv]
    assert cli.main(argv + ([] if argv[0] == "waterfill" else ["--output", str(out)])) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n0", "inf"], "n0 must be positive and finite, got inf"),
        (["--n0", "nan"], "n0 must be positive and finite, got nan"),
        (["--p-total", "inf"], "p_total must be positive and finite, got inf"),
        (["--p-total", "0"], "p_total must be positive and finite, got 0.0"),
    ],
)
def test_waterfill_rejects_a_bad_noise_or_budget(capsys, flags, message):
    assert cli.main(["waterfill", "--means", "1,2", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_waterfill_overflowing_thresholds_raise_no_warning(capsys):
    # n0/g overflows for g = 1e-320; that subchannel is left unpowered, and
    # if every threshold overflows, the input is rejected with a message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["waterfill", "--means", "1,1e-320"]) == 0
        captured = capsys.readouterr()
        assert cli.main(["waterfill", "--means", "1e-320"]) == 2
    assert captured.out == (
        "subchannel,gain,power\n0,1.0,1.0\n1,1e-320,0.0\n"
        "water_level = 2.0\nactive_subchannels = 1 / 2\n"
    )
    assert captured.err == ""
    assert capsys.readouterr().err == (
        "error: n0/g overflows for every gain; no subchannel can be powered\n"
    )


def test_bounds_sweep_flat_profile_rows_coincide(tmp_path):
    out = tmp_path / "flat.csv"
    rc = cli.main(
        ["bounds-sweep", "--n-bins", "4", "--decay-exponent", "0",
         "--snr-db=0,5", "--output", str(out)]
    )
    assert rc == 0
    rows = _read_rows(out)
    by_snr = {}
    for row in rows:
        by_snr.setdefault(row["snr_db"], []).append(row)
    numeric = [c for c in cli.BOUNDS_COLUMNS if c not in ("snr_db", "strategy")]
    for pair in by_snr.values():
        assert len(pair) == 2
        for col in numeric:
            assert math.isclose(float(pair[0][col]), float(pair[1][col]), rel_tol=1e-12)


def test_bounds_sweep_waterfilling_gains_at_low_snr(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["bounds-sweep", "--n-bins", "16", "--snr-db=-10", "--output", str(out)])
    assert rc == 0
    rows = {row["strategy"]: row for row in _read_rows(out)}
    assert float(rows["statistical-waterfill"]["normalized_lower"]) > float(
        rows["equal"]["normalized_lower"]
    )


def test_bounds_sweep_is_byte_identical_across_reruns(tmp_path):
    args = ["bounds-sweep", "--n-bins", "8", "--snr-db=-5,0,5"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(args + ["--output", str(first)]) == 0
    assert cli.main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    meta_a = json.loads((tmp_path / "a.csv.meta.json").read_text())
    meta_b = json.loads((tmp_path / "b.csv.meta.json").read_text())
    meta_a["config"].pop("output_path")
    meta_b["config"].pop("output_path")
    assert meta_a == meta_b


def test_bounds_sweep_bits_units(tmp_path):
    nats = tmp_path / "nats.csv"
    bits = tmp_path / "bits.csv"
    base = ["bounds-sweep", "--n-bins", "4", "--snr-db=0"]
    assert cli.main(base + ["--output", str(nats)]) == 0
    assert cli.main(base + ["--rate-units", "bits", "--output", str(bits)]) == 0
    row_n = _read_rows(nats)[0]
    row_b = _read_rows(bits)[0]
    ln2 = math.log(2.0)
    for col in ("c_upper", "c_lower_exact", "c_lower_markov", "c_awgn_ref"):
        assert math.isclose(float(row_b[col]), float(row_n[col]) / ln2, rel_tol=1e-12)
    for col in ("normalized_upper", "normalized_lower", "mpe_percent"):
        assert math.isclose(float(row_b[col]), float(row_n[col]), rel_tol=1e-12)


def test_mpe_study_bits_units(tmp_path):
    # the rate columns are the nats values divided by ln 2; the rest is unchanged
    nats = tmp_path / "nats.csv"
    bits = tmp_path / "bits.csv"
    base = ["mpe-study", "--n-bins", "4", "--l-values", "1,2,4", "--snr-db=-10,5"]
    assert cli.main(base + ["--output", str(nats)]) == 0
    assert cli.main(base + ["--rate-units", "bits", "--output", str(bits)]) == 0
    rows_n, rows_b = _read_rows(nats), _read_rows(bits)
    assert len(rows_n) == len(rows_b) == 6
    for row_n, row_b in zip(rows_n, rows_b):
        for col in ("c_upper", "c_lower_exact"):
            assert float(row_b[col]) == float(row_n[col]) / rates.LN2
        for col in ("L", "snr_db", "mpe_percent"):
            assert row_b[col] == row_n[col]


def test_bounds_sweep_csv_is_plain_lf_and_parses_back(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["bounds-sweep", "--n-bins", "4", "--snr-db=0", "--output", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    rows = _read_rows(out)
    assert list(rows[0].keys()) == list(cli.BOUNDS_COLUMNS)
    # full-precision floats survive a parse round trip
    assert repr(float(rows[0]["c_upper"])) == rows[0]["c_upper"]


def test_bounds_sweep_unwritable_output(tmp_path):
    rc = cli.main(
        ["bounds-sweep", "--n-bins", "4", "--snr-db=0",
         "--output", str(tmp_path / "no_such_dir" / "out.csv")]
    )
    assert rc == 3


def test_bounds_sweep_reports_numeric_failures(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(cli, "rate_table", boom)
    rc = cli.main(["bounds-sweep", "--n-bins", "4", "--snr-db=0", "--output", str(tmp_path / "x.csv")])
    assert rc == 4


def test_optimal_sweep_exits_4_when_the_solver_hits_its_iteration_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(alloc, "_ITER_CAP", 1)
    rc = cli.main(
        ["bounds-sweep", "--n-bins", "4", "--snr-db=0", "--strategies", "optimal",
         "--output", str(tmp_path / "x.csv")]
    )
    assert rc == 4


def test_sweep_exits_4_when_the_markov_search_hits_its_iteration_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(rates, "_ITER_CAP", 1)
    rc = cli.main(["bounds-sweep", "--n-bins", "4", "--snr-db=0", "--output", str(tmp_path / "x.csv")])
    assert rc == 4


@pytest.mark.parametrize("command", ["bounds-sweep", "mpe-study"])
def test_overflowing_snr_exits_2(tmp_path, command):
    argv = [command, "--n-bins", "4", "--snr-db=4000", "--output", str(tmp_path / "x.csv")]
    done = subprocess.run(
        [sys.executable, "-m", "simocap", *argv],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "error" in done.stderr
    assert "Traceback" not in done.stderr


def test_sweep_at_the_top_of_the_load_range_exits_0(tmp_path):
    # at 3070 dB the loads are about 1e307, where p*g/n0 overflows at the
    # exact rate's top quadrature nodes: finite rates, and no RuntimeWarning
    out = tmp_path / "x.csv"
    argv = ["bounds-sweep", "--n-bins", "8", "--m", "0.5", "--l-values", "1",
            "--snr-db=3070", "--output", str(out)]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "simocap", *argv],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2 and all(map(math.isfinite, (float(v) for r in rows for v in r.split(",")[2:])))


def test_optimal_sweep_at_the_top_of_the_load_range_exits_0(tmp_path):
    # at 3070 dB p*g overflows at the optimal solver's top nodes too, and its
    # curvature, about 1/p**2, underflows unless scaled: the solver meets its
    # KKT stop with no RuntimeWarning, and beats statistical waterfilling
    out = tmp_path / "x.csv"
    argv = ["bounds-sweep", "--n-bins", "8", "--m", "0.5", "--l-values", "1", "--snr-db=3070",
            "--strategies", "statistical-waterfill,optimal", "--output", str(out)]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "simocap", *argv],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(out, newline="") as fh:
        rows = {row["strategy"]: row for row in csv.DictReader(fh)}
    exact = {tag: float(row["c_lower_exact"]) for tag, row in rows.items()}
    assert all(math.isfinite(float(v)) for row in rows.values() for k, v in row.items()
               if k not in ("snr_db", "strategy"))
    assert exact["optimal"] >= exact["statistical-waterfill"], exact


@pytest.mark.parametrize("decay_exponent, code", [("34", 0), ("100", 0), ("1e308", 2)])
def test_sweep_at_a_large_decay_exponent(tmp_path, decay_exponent, code):
    # f**-d underflows at 5-6 GHz from d of about 34: the profile holds to
    # about 2100, and past it the refusal names the exponent and the band
    out = tmp_path / "x.csv"
    argv = ["bounds-sweep", "--n-bins", "8", "--decay-exponent", decay_exponent, "--snr-db=0,20",
            "--strategies", "statistical-waterfill,optimal", "--output", str(out)]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "simocap", *argv],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    if code:
        assert done.stderr == ("error: decay_exponent 1e+308 over [5000000000.0, 6000000000.0] Hz "
                               "gives mean gains that underflow\n"), done.stderr
        assert not out.exists()
    else:
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4 and all(map(math.isfinite, (float(v) for r in rows for v in r.split(",")[2:])))


@pytest.mark.parametrize("a_rule", ["max", "alpha=0.5"])
def test_sweep_at_a_load_below_the_markov_range_exits_2_naming_a_bin(tmp_path, a_rule):
    # at -3080 dB every bin's load p*mu/n0 is about 1e-308: refused, not a
    # c_lower_markov of 0.0 beside a positive alpha rule, and no RuntimeWarning;
    # the message names the SNR, also when an accepted one shares its stack
    out = tmp_path / "x.csv"
    for snr_db in ("-3080", "0,-3080"):
        argv = ["bounds-sweep", f"--snr-db={snr_db}", "--a-rule", a_rule, "--output", str(out)]
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "simocap", *argv],
            env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert re.fullmatch(r"error: p\*mu/n0 = \S+ in bin \d+ is below 2\*max\(shape, 2\)/DBL_MAX"
                            r" at SNR -3080\.0 dB\n", done.stderr), done.stderr
        assert not out.exists()


def test_diversity_order_past_the_shape_ceiling_exits_2(tmp_path, capsys):
    # shape m*L = 1e20 lies past 1e5, the largest shape the quadrature is
    # held to; its node count grows like sqrt(shape), to 2e10 nodes here
    out = tmp_path / "y.csv"
    argv = ["bounds-sweep", "--n-bins", "2", "--snr-db=0",
            "--l-values", "99999999999999999999", "--output", str(out)]
    assert cli.main(argv) == 2
    assert "shape must be finite and in [0.1, 100000], got 1e+20" in capsys.readouterr().err
    assert not out.exists()


def test_diversity_order_past_the_largest_float_exits_2(tmp_path, capsys):
    # float(L) overflows for an integer L of 400 digits
    out = tmp_path / "y.csv"
    argv = ["bounds-sweep", "--n-bins", "2", "--snr-db=0",
            "--l-values", "1" + "0" * 400, "--output", str(out)]
    assert cli.main(argv) == 2
    assert "L must be a positive integer below 1.8e308" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_sweep_supports_optimal_strategy(tmp_path):
    out = tmp_path / "opt.csv"
    rc = cli.main(
        ["bounds-sweep", "--n-bins", "2", "--snr-db=0",
         "--strategies", "statistical-waterfill,optimal", "--output", str(out)]
    )
    assert rc == 0
    rows = {row["strategy"]: row for row in _read_rows(out)}
    assert float(rows["optimal"]["c_lower_exact"]) >= (
        float(rows["statistical-waterfill"]["c_lower_exact"]) - 1e-9
    )


def test_mpe_study_requires_two_orders(tmp_path):
    rc = cli.main(["mpe-study", "--l-values", "4", "--output", str(tmp_path / "m.csv")])
    assert rc == 2


@pytest.mark.parametrize("l_values", ["1,2", "4,2,1"])
def test_mpe_study_needs_three_increasing_orders(tmp_path, capsys, l_values):
    # the slope fit needs at least 3 strictly increasing diversity orders
    rc = cli.main(["mpe-study", "--l-values", l_values, "--output", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_mpe_study_names_its_unordered_diversity_orders(tmp_path, capsys):
    rc = cli.main(["mpe-study", "--l-values", "4,2,8", "--output", str(tmp_path / "m.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: l_values must be strictly increasing\n"


@pytest.mark.parametrize("snr_db", ["-250", "-300"])
def test_mpe_study_exits_2_where_the_bounds_agree_to_rounding(tmp_path, capsys, snr_db):
    # some MPEs are exactly 0 or a few ulps below it, so no slope exists;
    # nothing is written, in particular no NaN slope, which is not JSON
    out = tmp_path / "m.csv"
    assert cli.main(["mpe-study", f"--snr-db={snr_db}", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the MPE slope is undefined unless every MPE is positive and finite, got ["
    )
    assert not out.exists() and not (tmp_path / "m.csv.meta.json").exists()


def test_mpe_study_names_the_snr_without_a_slope(tmp_path, capsys):
    # -10 dB has a slope, -250 dB has not: the message names -250
    out = tmp_path / "m.csv"
    assert cli.main(["mpe-study", "--snr-db=-10,-250", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the MPE slope is undefined unless every MPE is positive")
    assert err.endswith("] at SNR -250.0 dB\n"), err
    assert not out.exists() and not (tmp_path / "m.csv.meta.json").exists()


def test_bounds_sweep_max_rule_beats_the_alpha_rule_at_extreme_snr(tmp_path):
    # the maximised Markov bound is at least the paper's alpha = 0.5 rule on
    # every row, far below and far above the usual SNRs
    columns = []
    for rule in ("max", "alpha=0.5"):
        out = tmp_path / f"{rule}.csv"
        argv = ["bounds-sweep", "--snr-db=-120,-100,-80,250", "--a-rule", rule, "--output", str(out)]
        assert cli.main(argv) == 0
        columns.append([float(row["c_lower_markov"]) for row in _read_rows(out)])
    assert len(columns[0]) == 8
    assert all(best >= alpha_rule > 0.0 for best, alpha_rule in zip(*columns)), columns


@pytest.mark.parametrize(
    "snr_db, fault",
    [("-4000", "underflows to 0"), ("4000", "overflows"), ("3080", "overflows"),
     ("nan", "is not a number")],
)
def test_an_snr_without_a_finite_positive_power_exits_2_naming_the_snr(
    tmp_path, capsys, snr_db, fault
):
    # 10**308 is finite, but 64 bins times it is not
    out = tmp_path / "x.csv"
    assert cli.main(["bounds-sweep", f"--snr-db={snr_db}", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: SNR {float(snr_db)!r} dB gives a power that {fault}\n"
    assert not out.exists()


def test_bounds_sweep_at_very_low_snr_writes_an_mpe_near_zero(tmp_path):
    # at -300 dB the exact rate of L = 8 exceeds its Jensen bound by one ulp
    out = tmp_path / "low.csv"
    assert cli.main(["bounds-sweep", "--l-values", "8", "--snr-db=-300", "--output", str(out)]) == 0
    rows = {row["strategy"]: row for row in _read_rows(out)}
    assert abs(float(rows["statistical-waterfill"]["mpe_percent"])) <= 1e-11


def test_mpe_study_rows_and_slopes(tmp_path):
    out = tmp_path / "mpe.csv"
    rc = cli.main(
        ["mpe-study", "--n-bins", "8", "--l-values", "1,2,4,8", "--snr-db=-10,5",
         "--output", str(out)]
    )
    assert rc == 0
    rows = _read_rows(out)
    assert list(rows[0].keys()) == list(cli.MPE_COLUMNS)
    for snr in ("-10.0", "5.0"):
        series = [float(r["mpe_percent"]) for r in rows if r["snr_db"] == snr]
        assert len(series) == 4
        assert all(b < a for a, b in zip(series, series[1:]))
    meta = json.loads((tmp_path / "mpe.csv.meta.json").read_text())
    slopes = meta["mpe_slope_by_snr_db"]
    assert set(slopes) == {"-10.0", "5.0"}
    assert all(s < 0 for s in slopes.values())
    assert meta["config"]["n_bins"] == 8
    assert "snr_definition" in meta and "awgn_normalizer" in meta


def test_config_file_with_flag_overrides(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"n_bins": 4, "snr_db_values": [0.0], "decay_exponent": 0.0})
    )
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["bounds-sweep", "--config", str(config), "--n-bins", "6", "--output", str(out)]
    )
    assert rc == 0
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["config"]["n_bins"] == 6
    assert meta["config"]["decay_exponent"] == 0.0


def test_unknown_config_key_is_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bins": 4}))
    rc = cli.main(
        ["bounds-sweep", "--config", str(config), "--output", str(tmp_path / "x.csv")]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "document",
    [
        {"n_bins": "64"},
        {"n_bins": True},
        {"n_bins": 6.5},
        {"m": "1"},
        {"l_values": 4},
        {"l_values": [4, "8"]},
        {"snr_db_values": 0.0},
        {"strategies": "equal"},
        {"a_rule": 5},
    ],
)
def test_wrong_typed_config_field_exits_2(tmp_path, document):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    argv = ["bounds-sweep", "--config", str(config), "--output", str(tmp_path / "x.csv")]
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, simocap.cli as c; sys.exit(c.main({argv!r}))"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "error" in done.stderr
    assert f"'{next(iter(document))}'" in done.stderr
    assert "Traceback" not in done.stderr


def test_integral_float_config_fields_are_accepted(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_bins": 4.0, "l_values": [2.0], "snr_db_values": [0]}))
    out = tmp_path / "x.csv"
    rc = cli.main(["bounds-sweep", "--config", str(config), "--output", str(out)])
    assert rc == 0
    assert len(_read_rows(out)) == 2


# for every config field: its flag, the flag's text, and the value both give
_CONFIG_SURFACE = {
    "f_lo_hz": ("--f-lo-hz", "4.5e9", 4.5e9),
    "f_hi_hz": ("--f-hi-hz", "6.5e9", 6.5e9),
    "n_bins": ("--n-bins", "3", 3),
    "decay_exponent": ("--decay-exponent", "2.0", 2.0),
    "m": ("--m", "2.0", 2.0),
    "l_values": ("--l-values", "2", [2]),
    "snr_db_values": ("--snr-db", "1.0,2.0", [1.0, 2.0]),
    "n_snapshots": ("--n-snapshots", "7", 7),
    "seed": ("--seed", "5", 5),
    "strategies": ("--strategies", "equal,optimal", ["equal", "optimal"]),
    "a_rule": ("--a-rule", "alpha=0.25", "alpha=0.25"),
    "rate_units": ("--rate-units", "bits", "bits"),
    "output_path": ("--output", None, None),
}


# mpe-study fits its slopes over at least three diversity orders
_MPE_L_VALUES = ("--l-values", "1,2,3", [1, 2, 3])
# a small run of each config command, as a JSON document of the fields it reads
_BASE_CONFIG = {
    "bounds-sweep": {"n_bins": 2, "snr_db_values": [0.0]},
    "mpe-study": {"n_bins": 2, "snr_db_values": [0.0], "l_values": [1, 2, 4]},
    "gen-synthetic": {"n_bins": 2, "n_snapshots": 5},
}
_UNREAD = [
    (c, f.name) for c, names in cli.COMMAND_FIELDS.items()
    for f in fields(cli.ExperimentConfig) if f.name not in names
]
# rate_units and the three notes on what the rates mean
_RATE_KEYS = {"rate_units", "snr_definition", "awgn_normalizer", "upper_bound"}


def test_config_surface_table_names_every_field():
    assert list(_CONFIG_SURFACE) == [f.name for f in fields(cli.ExperimentConfig)]
    defaults = cli.ExperimentConfig()
    for name, (_, _, value) in _CONFIG_SURFACE.items():
        assert value != getattr(defaults, name), name
    assert _MPE_L_VALUES[2] != _BASE_CONFIG["mpe-study"]["l_values"]
    assert cli.COMMAND_FIELDS.keys() == _BASE_CONFIG.keys()
    assert {c: len(names) for c, names in cli.COMMAND_FIELDS.items()} == {
        "bounds-sweep": 11, "mpe-study": 9, "gen-synthetic": 9
    }


@pytest.mark.parametrize("source", ["flag", "json"])
@pytest.mark.parametrize("name", list(_CONFIG_SURFACE))
def test_every_config_field_reaches_the_sidecar(tmp_path, name, source):
    # a non-default value set by the field's flag or by its JSON key, through
    # every command that reads the field
    commands = [c for c, names in cli.COMMAND_FIELDS.items() if name in names]
    assert commands
    for command in commands:
        flag, text, value = _CONFIG_SURFACE[name]
        if (command, name) == ("mpe-study", "l_values"):
            flag, text, value = _MPE_L_VALUES
        out = tmp_path / f"{command}.csv"
        if name == "output_path":
            text = value = str(out)
        base = dict(_BASE_CONFIG[command])
        argv = [command]
        if source == "flag":
            argv += [flag, text]
        else:
            base[name] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base))
        argv += ["--config", str(config)]
        if name != "output_path":
            argv += ["--output", str(out)]
        assert cli.main(argv) == 0, command
        meta = json.loads((tmp_path / f"{command}.csv.meta.json").read_text())
        assert meta["config"][name] == value, command


@pytest.mark.parametrize("command, name", _UNREAD, ids=[f"{c}-{n}" for c, n in _UNREAD])
def test_every_command_rejects_the_fields_it_does_not_read(tmp_path, capsys, command, name):
    flag, text, value = _CONFIG_SURFACE[name]
    out = tmp_path / "out.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(_BASE_CONFIG[command], **{name: value})))
    # the key in the JSON document
    assert cli.main([command, "--config", str(config), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {command} reads no config field {name!r}\n"
    # the flag, a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, text, "--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {command}: unrecognized arguments: {flag} {text}\n" in err
    assert "Traceback" not in err
    assert not out.exists()
    # without it, the sidecar echoes exactly the fields the command reads
    config.write_text(json.dumps(_BASE_CONFIG[command]))
    assert cli.main([command, "--config", str(config), "--output", str(out)]) == 0
    meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert set(meta["config"]) == set(cli.COMMAND_FIELDS[command])
    assert _RATE_KEYS & set(meta) == (set() if command == "gen-synthetic" else _RATE_KEYS)


@pytest.mark.parametrize("command", ["bounds-sweep", "gen-synthetic"])
def test_single_order_commands_reject_two_diversity_orders(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert cli.main([command, "--n-bins", "2", "--l-values", "2,4", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {command} takes exactly one l_values entry, got [2, 4]\n"
    assert not out.exists()


_MISSING, _DIRECTORY = object(), object()  # a config path that names nothing, or a directory
# each refusal: its command, its config file's text (None: no --config), its other flags,
# and its message, where {config} is the config path
_REFUSALS = {
    "missing-config": (
        "bounds-sweep", _MISSING, [],
        "cannot read config {config}: [Errno 2] No such file or directory: '{config}'",
    ),
    "config-is-a-directory": (
        "bounds-sweep", _DIRECTORY, [],
        "cannot read config {config}: [Errno 21] Is a directory: '{config}'",
    ),
    "invalid-json": (
        "mpe-study", "{", [],
        "invalid JSON in {config}: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    "json-array": ("gen-synthetic", "[4]", [], "config document must be a JSON object"),
    "no-output-path": ("gen-synthetic", "{}", [], "an output path is required (--output)"),
    "empty-snr-list-sweep": (
        "bounds-sweep", '{"snr_db_values": []}', [], "snr_db_values must be non-empty"
    ),
    "empty-snr-list-mpe": (
        "mpe-study", '{"snr_db_values": []}', [], "snr_db_values must be non-empty"
    ),
    "unknown-strategy": ("bounds-sweep", None, ["--strategies", "foo"], "unknown strategy 'foo'"),
    "empty-strategies": ("bounds-sweep", '{"strategies": []}', [], "strategies must be non-empty"),
    "wrong-json-type": (
        "bounds-sweep", '{"rate_units": 5}', [], "config field 'rate_units' must be a string, got 5"
    ),
    "bad-rate-units": (
        "mpe-study", '{"rate_units": "bits2"}', [],
        "config field 'rate_units' must be one of ('nats', 'bits'), got 'bits2'",
    ),
    "empty-orders-mpe": ("mpe-study", '{"l_values": []}', [], "l_values must be non-empty"),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_every_config_refusal_exits_2_before_any_write(tmp_path, capsys, case):
    command, text, flags, message = _REFUSALS[case]
    config = tmp_path / "config.json"
    argv = [command, "--n-bins", "2", *flags]
    if text is not None:
        argv += ["--config", str(config)]
    if text is _DIRECTORY:
        config.mkdir()
    elif isinstance(text, str):
        config.write_text(text)
    if case != "no-output-path":
        argv += ["--output", str(tmp_path / "out.csv")]
    before = sorted(tmp_path.iterdir())
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(config=config)}\n")
    # no output, no sidecar, no temporary file
    assert sorted(tmp_path.iterdir()) == before


def test_gen_synthetic_is_deterministic(tmp_path):
    args = ["gen-synthetic", "--n-bins", "3", "--l-values", "2", "--n-snapshots", "5", "--seed", "9"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(args + ["--output", str(a)]) == 0
    assert cli.main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_gen_synthetic_negative_seed_exits_2_and_names_seed(tmp_path, capsys, source):
    out = tmp_path / "chan.csv"
    argv = ["gen-synthetic", "--n-bins", "2", "--output", str(out)]
    if source == "flag":
        argv.append("--seed=-1")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(config)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
    assert list(tmp_path.glob("chan.csv*")) == []


def test_gen_then_ingest_round_trip(tmp_path):
    chan = tmp_path / "chan.csv"
    stats = tmp_path / "stats.json"
    assert (
        cli.main(
            ["gen-synthetic", "--n-bins", "4", "--l-values", "4",
             "--n-snapshots", "300", "--seed", "12", "--output", str(chan)]
        )
        == 0
    )
    assert cli.main(["ingest", "--input", str(chan), "--output", str(stats)]) == 0
    doc = json.loads(stats.read_text())
    assert doc["snapshots"] == 300
    assert doc["n_bins"] == 4
    assert doc["branches_in_file"] == 4
    assert doc["branches_used"] == [0, 1, 2, 3]
    assert len(doc["bins"]) == 4
    means = np.array([b["mean_gain"] for b in doc["bins"]])
    assert np.all(means > 0)
    assert all(b["fit_shape"] is not None for b in doc["bins"])


def test_channel_from_fits_below_shape_one_half(tmp_path):
    # m = 0.5, L = 1 fits scatter around 0.5; a channel built from the fits
    # solves, and its bounds keep their order, from -10 to 20 dB
    chan = tmp_path / "chan.csv"
    stats = tmp_path / "stats.json"
    assert cli.main(["gen-synthetic", "--n-bins", "64", "--m", "0.5", "--l-values", "1",
                     "--output", str(chan)]) == 0
    assert cli.main(["ingest", "--input", str(chan), "--output", str(stats)]) == 0
    bins = json.loads(stats.read_text())["bins"]
    shapes = np.array([b["fit_shape"] for b in bins])
    scales = np.array([b["fit_scale"] for b in bins])
    assert shapes.min() < 0.5 < shapes.max()
    for snr_db in (-10.0, 5.0, 20.0):
        p_total = rates.snr_db_to_power(64, 1.0, snr_db)
        ch = simocap.ParallelChannel(theta=scales, shape=shapes, n0=1.0)
        swf = alloc.waterfill(ch.mean_gains, ch.n0, p_total)[0]
        opt = alloc.optimal_allocation(ch, p_total)
        assert math.isclose(opt.sum(), p_total, rel_tol=1e-12)
        for loading in (swf, opt):
            bounds = [f(ch, loading) for f in (rates.markov_lower, rates.exact_rate, rates.jensen_upper)]
            assert bounds == sorted(bounds)
        assert rates.exact_rate(ch, opt) >= rates.exact_rate(ch, swf)


def _subprocess_env():
    # a fresh interpreter finds this checkout's package first
    src = str(Path(simocap.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "simocap", "waterfill", "--means", "1,2"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "water_level = 1.25" in done.stdout


def test_python_dash_m_on_the_cli_module_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "simocap.cli", "waterfill", "--means", "1,2"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "water_level = 1.25" in done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        # 1.25 PiB, 7.11 PiB and 3.55 EiB: past the 128 TiB (2**47 bytes) of
        # address space of any 64-bit host, so the request itself fails
        ["gen-synthetic", "--n-bins", "2", "--branches", "100000000000"],
        ["bounds-sweep", "--n-bins", "1000000000000000", "--snr-db=0"],
        ["gen-synthetic", "--n-snapshots", "1000000000000000"],
        # a branch count past the largest float
        ["gen-synthetic", "--n-bins", "2", "--branches", "1" + "0" * 400],
    ],
    ids=["branches-1e11", "n-bins-1e15", "n-snapshots-1e15", "branches-1e400"],
)
def test_inputs_too_large_to_allocate_exit_2_without_a_traceback(tmp_path, argv):
    out = tmp_path / "big.csv"
    done = subprocess.run(
        [sys.executable, "-m", "simocap", *argv, "--output", str(out)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert not out.exists()


_AT_MOST = "must be a positive integer at most "


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds-sweep", "--n-bins", "1" + "0" * 20, "--snr-db=0"], "n_bins " + _AT_MOST),
        # numpy's linspace raises IndexError at the largest intp
        (["bounds-sweep", "--n-bins", str(2**63 - 1), "--snr-db=0"], "n_bins " + _AT_MOST),
        # a float64 array of the largest length, which linspace's float count rounds up past it
        (["bounds-sweep", "--n-bins", str(2**60 - 1), "--snr-db=0"], "n_bins " + _AT_MOST),
        (["gen-synthetic", "--n-bins", "2", "--n-snapshots", "1" + "0" * 20],
         "n_snapshots " + _AT_MOST),
        (["gen-synthetic", "--n-bins", "2", "--branches", "1" + "0" * 20],
         "n_branches " + _AT_MOST),
        # each count alone fits, but not the complex coefficients of all of them
        (["gen-synthetic", "--n-bins", "64", "--n-snapshots", "1" + "0" * 18],
         "n_snapshots * n_branches * bins must be at most "),
    ],
    ids=["n-bins-1e20", "n-bins-2**63-1", "n-bins-2**60-1", "n-snapshots-1e20", "branches-1e20",
         "n-snapshots-1e18-by-4-by-64"],
)
def test_counts_past_the_largest_array_length_exit_2_and_name_the_count(tmp_path, argv, message):
    # no float64 array of more than 2**63 bytes can even be asked for, so
    # a longer count is an input error whose message names the count
    out = tmp_path / "big.csv"
    done = subprocess.run(
        [sys.executable, "-m", "simocap", *argv, "--output", str(out)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: " + message)
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "a_rule, message",
    [
        ("alpha=abc", "a_rule must be 'max' or 'alpha=<value>', got 'alpha=abc'"),
        ("alpha=2", "alpha must lie strictly between 0 and 1"),
        ("alpha=nan", "alpha must lie strictly between 0 and 1"),
    ],
    ids=["abc", "2", "nan"],
)
def test_a_rule_with_a_bad_alpha_exits_2(tmp_path, capsys, a_rule, message):
    out = tmp_path / "x.csv"
    argv = ["bounds-sweep", "--n-bins", "2", "--snr-db=0", "--a-rule", a_rule, "--output", str(out)]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _modules_after(script_lines, roots=("scipy",)):
    # the modules under the given top-level packages that a fresh
    # interpreter holds after importing the CLI and running the script
    script = "\n".join(
        ["import sys", "import simocap.cli as cli"]
        + script_lines
        + [f"print(*sorted(m for m in sys.modules if m.split('.')[0] in {tuple(roots)!r}))"]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_and_csv_paths_do_not_load_scipy(tmp_path):
    # nothing in the package imports scipy, so a fresh interpreter that
    # imports the CLI and runs gen-synthetic and ingest never loads it.
    chan = str(tmp_path / "chan.csv")
    stats = str(tmp_path / "stats.json")
    gen = ["gen-synthetic", "--n-bins", "4", "--l-values", "2", "--n-snapshots", "30"]
    loaded = _modules_after(
        [
            f"assert cli.main({gen!r} + ['--output', {chan!r}]) == 0",
            f"assert cli.main(['ingest', '--input', {chan!r}, '--output', {stats!r}]) == 0",
        ]
    )
    assert loaded == []
    assert len(json.loads(Path(stats).read_text())["bins"]) == 4


def test_optimal_bounds_sweep_does_not_load_scipy_linalg(tmp_path):
    # the gamma quadrature is a fixed trapezoid rule; no eigensolver is needed
    out = str(tmp_path / "opt.csv")
    sweep = ["bounds-sweep", "--n-bins", "4", "--snr-db", "0", "--strategies", "optimal"]
    loaded = _modules_after([f"assert cli.main({sweep!r} + ['--output', {out!r}]) == 0"])
    assert loaded == []
    assert not [m for m in loaded if m.startswith("scipy.linalg")]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds-sweep", "--n-bins", "4", "--snr-db=-10,0,10"],
        ["bounds-sweep", "--n-bins", "4", "--snr-db=-10,0,10", "--a-rule", "alpha=0.5"],
        ["mpe-study", "--n-bins", "4", "--l-values", "1,2,4", "--snr-db", "0"],
    ],
    ids=["a-rule-max", "a-rule-alpha", "mpe-study"],
)
def test_compute_commands_do_not_load_scipy(tmp_path, argv):
    # the Markov bound's incomplete gamma function is the library's own
    # numpy kernel, so no compute command loads any part of scipy
    out = str(tmp_path / "out.csv")
    loaded = _modules_after([f"assert cli.main({argv!r} + ['--output', {out!r}]) == 0"])
    assert loaded == []


_BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import simocap
import simocap.cli as cli
"""


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # stricter than the per-command checks above: an import of scipy or
    # any scipy.* module fails, and import simocap plus every subcommand
    # must still succeed in a fresh interpreter
    chan, stats, out = (str(tmp_path / name) for name in ("chan.csv", "stats.json", "out.csv"))
    sweep = ["bounds-sweep", "--n-bins", "4", "--snr-db=-10,0,10",
             "--strategies", "statistical-waterfill,equal,optimal", "--output", out]
    commands = [
        ["waterfill", "--means", "1,2,0.5"],
        sweep + ["--a-rule", "max"],
        sweep + ["--a-rule", "alpha=0.5"],
        ["mpe-study", "--n-bins", "4", "--l-values", "1,2,4", "--snr-db", "0", "--output", out],
        ["gen-synthetic", "--n-bins", "4", "--l-values", "2", "--n-snapshots", "30",
         "--output", chan],
        ["ingest", "--input", chan, "--output", stats],
    ]
    script = _BLOCK_SCIPY + "\n".join(
        [f"assert cli.main({argv!r}) == 0, {argv[0]!r}" for argv in commands]
        + ["try:\n    import scipy\nexcept ImportError:\n    print('scipy is blocked')"]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # the last line shows that the block was in force throughout
    assert done.stdout.endswith("scipy is blocked\n"), done.stdout
    assert len(json.loads(Path(stats).read_text())["bins"]) == 4


def test_bounds_sweep_does_not_load_a_process_pool(tmp_path):
    # sweeps run in one serial loop: neither the import nor a run starts,
    # or even imports, the machinery of a process pool
    out = str(tmp_path / "sweep.csv")
    sweep = ["bounds-sweep", "--n-bins", "4", "--snr-db", "0,5"]
    loaded = _modules_after(
        [f"assert cli.main({sweep!r} + ['--output', {out!r}]) == 0"],
        roots=("concurrent", "multiprocessing"),
    )
    assert "concurrent.futures.process" not in loaded
    assert not [m for m in loaded if m.split(".")[0] == "multiprocessing"]


class _WriteFailsHalfway:
    # a text file whose write stores half of its text, then fails
    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError("simulated full disk")


@pytest.mark.parametrize(
    "first, second",
    [
        (["bounds-sweep", "--n-bins", "4", "--snr-db", "0"], ["--snr-db", "0,5"]),
        (["gen-synthetic", "--n-bins", "4", "--l-values", "2", "--n-snapshots", "30"],
         ["--seed", "1"]),
        (["ingest", "--input", "{chan}"], ["--branches", "0"]),
    ],
    ids=["bounds-sweep", "gen-synthetic", "ingest"],
)
def test_failed_write_leaves_previous_output_intact(tmp_path, monkeypatch, first, second):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    chan = tmp_path / "chan.csv"
    gen = ["gen-synthetic", "--n-bins", "3", "--l-values", "2", "--n-snapshots", "20"]
    assert cli.main(gen + ["--output", str(chan)]) == 0
    argv = [arg.format(chan=chan) for arg in first] + ["--output", str(out_dir / "result")]
    assert cli.main(argv) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _WriteFailsHalfway(fh) if "w" in mode else fh

    monkeypatch.setattr("builtins.open", failing_open)
    assert cli.main(argv + second) == cli.EXIT_OUTPUT
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_ingest_band_filter_and_branch_subset(tmp_path):
    chan = tmp_path / "chan.csv"
    cli.main(
        ["gen-synthetic", "--n-bins", "6", "--l-values", "2",
         "--n-snapshots", "50", "--seed", "1", "--output", str(chan)]
    )
    stats = tmp_path / "stats.json"
    rc = cli.main(
        ["ingest", "--input", str(chan), "--f-min-hz", "5.2e9", "--f-max-hz", "5.9e9",
         "--branches", "0", "--output", str(stats)]
    )
    assert rc == 0
    doc = json.loads(stats.read_text())
    assert doc["branches_used"] == [0]
    assert doc["n_bins"] == 4
    rc = cli.main(["ingest", "--input", str(chan), "--f-min-hz", "9e9"])
    assert rc == 2


def test_ingest_missing_input_is_an_input_error(tmp_path, capsys):
    rc = cli.main(["ingest", "--input", str(tmp_path / "nope.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_ingest_malformed_file_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("snapshot,branch,bin,freq_hz,re,im\n0,0,0,5e9,1\n")
    assert cli.main(["ingest", "--input", str(bad)]) == 2


_HEADER = "snapshot,branch,bin,freq_hz,re,im\n"
_ROW = "0,0,0,5e9,1,0\n"


@pytest.mark.parametrize(
    "content, flags, message",
    [
        ("", [], "empty input"),
        ("snapshot,branch,bin,freq,re,im\n" + _ROW, [], "line 1: expected header"),
        (_HEADER + _ROW + "\n0,0,1,6e9,1,0\n", [], "line 3: blank line"),
        (_HEADER + "0,0,0,5e9,1,0,9\n0,0,1,6e9,1\n", [], "line 2: expected 6 fields, got 7"),
        (_HEADER + _ROW + "0,0,1,6e9,1,0\nx,0,2,7e9,1,0\n", [], "line 4: non-numeric field"),
        (_HEADER + _ROW + "0,-1,0,5e9,1,0\n", [], "line 3: indices must be"),
        (_HEADER + _ROW + "0,0,1,6e9,inf,0\n", [], "line 3: non-finite numeric field"),
        (_HEADER + _ROW + "0,0,1,nan,1,0\n", [], "line 3: non-finite numeric field"),
        (_HEADER + _ROW + _ROW + "x,0,1,6e9,1,0\n", [], "line 3: duplicate cell"),
        (_HEADER + _ROW + "1,0,0,5.1e9,1,0\n", [], "line 3: inconsistent freq_hz for bin 0"),
        (_HEADER, [], "no data rows"),
        (_HEADER + _ROW + "1,0,0,5e9,1,0\n0,0,1,6e9,1,0\n", [], "missing cell"),
        (_HEADER + "0,0,1000000000000,5e9,1,0\n", [],
         "missing cell (snapshot=0, branch=0, bin=0)"),
        (_HEADER + _ROW, ["--f-min-hz", "9e9"], "band filter selected no bins"),
        (_HEADER + "0,0,0,6e9,1,0\n0,0,1,5e9,1,0\n", [], "strictly increasing"),
        # a well-formed file that cannot be normalized
        (_HEADER + "0,0,0,5e9,0,0\n1,0,0,5e9,0,-0\n", [], "all coefficients are zero"),
    ],
    ids=[
        "empty", "header", "blank", "ragged", "non-numeric", "negative", "inf", "nan",
        "duplicate", "freq", "no-rows", "missing", "huge-bin", "band", "order", "all-zero",
    ],
)
def test_ingest_exits_2_on_every_parse_fault(tmp_path, capsys, content, flags, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    assert cli.main(["ingest", "--input", str(bad)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_ingest_exits_2_on_undecodable_bytes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(_HEADER.encode() + b"0,0,0,5e9,\xff,0\n")
    assert cli.main(["ingest", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _reject_constant(name):
    raise AssertionError(f"{name} in the statistics JSON")


@pytest.mark.parametrize(
    "rows, fitted",
    [
        # one snapshot: no bin has a variance
        (["0,0,0,5e9,1,0", "0,0,1,6e9,2,0", "0,1,0,5e9,0,1", "0,1,1,6e9,0,3"], [False, False]),
        # bin 0 has |h|^2 = 1 in every snapshot, bin 1 varies
        ([f"{s},0,0,5e9,1,0" for s in range(4)]
         + [f"{s},0,1,6e9,{h},0" for s, h in enumerate([0, 2, 0, 0])], [False, True]),
    ],
    ids=["one-snapshot", "constant-bin"],
)
def test_ingest_writes_null_for_bins_without_a_fit(tmp_path, rows, fitted):
    chan = tmp_path / "chan.csv"
    chan.write_text(_HEADER + "".join(row + "\n" for row in rows))
    stats = tmp_path / "stats.json"
    assert cli.main(["ingest", "--input", str(chan), "--output", str(stats)]) == 0
    bins = json.loads(stats.read_text(), parse_constant=_reject_constant)["bins"]
    assert [b["fit_shape"] is not None for b in bins] == fitted
    assert [b["fit_scale"] is not None for b in bins] == fitted
    assert all(b["mean_gain"] > 0.0 for b in bins)
    if fitted[1]:
        # gains 0, 4, 0, 0 over a pooled mean of 1: mean 1, variance 3
        assert bins[1]["fit_shape"] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert bins[1]["fit_scale"] == pytest.approx(3.0, rel=1e-15)

