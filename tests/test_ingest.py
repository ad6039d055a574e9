import io
import itertools
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from simocap import ingest
from simocap.channel import ParallelChannel, build_decay_profile
from simocap.ingest import (
    CSV_HEADER,
    ParseError,
    SnapshotSet,
    _write_atomic,
    generate_snapshots,
    parse_channel_csv,
    pooled_mean_gain,
    simo_gains,
    write_channel_csv,
)

MINIMAL = f"{CSV_HEADER}\n0,0,0,5e9,1,0\n"


def _make_set(n_snapshots=3, n_branches=2, n_bins=2, seed=0):
    ch = build_decay_profile(n_bins, 5e9, 6e9, 3.0, 1.0, n_branches, 1.0)
    return generate_snapshots(ch, n_snapshots, seed=seed, n_branches=n_branches)


def test_parse_minimal_file():
    out = parse_channel_csv(io.StringIO(MINIMAL))
    assert out.snapshots == 1 and out.branches == 1 and out.n_bins == 1
    assert out.coeffs[0, 0, 0] == 1.0 + 0.0j
    assert out.freqs_hz[0] == 5e9


def test_parse_accepts_crlf_and_any_row_order():
    body = (
        f"{CSV_HEADER}\r\n"
        "0,0,1,6e9,0,1\r\n"
        "0,0,0,5e9,1,0\r\n"
    )
    out = parse_channel_csv(io.StringIO(body))
    assert out.n_bins == 2
    assert out.coeffs[0, 0, 0] == 1.0
    assert out.coeffs[0, 0, 1] == 1j


def test_round_trip_is_exact():
    original = _make_set(n_snapshots=4, n_branches=3, n_bins=5, seed=11)
    buf = io.StringIO()
    write_channel_csv(original, buf)
    buf.seek(0)
    back = parse_channel_csv(buf)
    assert np.array_equal(back.coeffs, original.coeffs)
    assert np.array_equal(back.freqs_hz, original.freqs_hz)


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_channel_csv(io.StringIO("snapshot,branch,bin,freq,re,im\n0,0,0,1,1,0\n"))


def test_parse_rejects_ragged_row():
    with pytest.raises(ParseError, match="line 2"):
        parse_channel_csv(io.StringIO(f"{CSV_HEADER}\n0,0,0,5e9,1\n"))


def test_parse_rejects_non_numeric_field():
    with pytest.raises(ParseError, match="line 3"):
        parse_channel_csv(
            io.StringIO(f"{CSV_HEADER}\n0,0,0,5e9,1,0\nx,0,1,6e9,1,0\n")
        )


def test_parse_rejects_duplicate_cell():
    body = f"{CSV_HEADER}\n0,0,0,5e9,1,0\n0,0,0,5e9,2,0\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_channel_csv(io.StringIO(body))


def test_parse_rejects_missing_cell():
    body = (
        f"{CSV_HEADER}\n"
        "0,0,0,5e9,1,0\n"
        "0,0,1,6e9,1,0\n"
        "1,0,0,5e9,1,0\n"
    )
    with pytest.raises(ParseError, match="missing cell"):
        parse_channel_csv(io.StringIO(body))


def test_parse_rejects_inconsistent_bin_frequency():
    body = f"{CSV_HEADER}\n0,0,0,5e9,1,0\n1,0,0,5.1e9,1,0\n"
    with pytest.raises(ParseError, match="inconsistent freq_hz"):
        parse_channel_csv(io.StringIO(body))


def test_parse_rejects_non_increasing_frequencies():
    for freq in ("5e9", "6e9"):  # a falling frequency, and two bins sharing one
        body = f"{CSV_HEADER}\n0,0,0,6e9,1,0\n0,0,1,{freq},1,0\n"
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_channel_csv(io.StringIO(body))


def test_frequency_order_check_holds_across_the_whole_float_range():
    # the gap between the bins exceeds the largest float; the order check must not overflow
    body = f"{CSV_HEADER}\n0,0,0,-1.7e308,1,0\n0,0,1,1.7e308,1,0\n"
    snaps = parse_channel_csv(io.StringIO(body))
    assert snaps.freqs_hz.tolist() == [-1.7e308, 1.7e308]
    with pytest.raises(ValueError, match="strictly increasing"):
        SnapshotSet(freqs_hz=[1.7e308, -1.7e308], coeffs=np.ones((1, 1, 2)))


def test_parse_band_filter():
    original = _make_set(n_bins=6)
    buf = io.StringIO()
    write_channel_csv(original, buf)
    buf.seek(0)
    filtered = parse_channel_csv(buf, f_min_hz=5.3e9, f_max_hz=5.9e9)
    keep = (original.freqs_hz >= 5.3e9) & (original.freqs_hz <= 5.9e9)
    assert np.array_equal(filtered.freqs_hz, original.freqs_hz[keep])
    assert np.array_equal(filtered.coeffs, original.coeffs[:, :, keep])
    buf.seek(0)
    with pytest.raises(ParseError, match="no bins"):
        parse_channel_csv(buf, f_min_hz=8e9)


def test_pooled_mean_gain_scales_every_coefficient_by_one_factor():
    # dividing the gains by the pooled mean is one scale on every coefficient:
    # all branches together average to the branch count, one branch scales alone
    snaps = _make_set(n_snapshots=10, seed=3)
    pooled = pooled_mean_gain(snaps)
    normalized = simo_gains(snaps, range(2)) / pooled
    assert abs(normalized.mean() - 2.0) < 1e-12
    scaled = SnapshotSet(freqs_hz=snaps.freqs_hz, coeffs=snaps.coeffs / math.sqrt(pooled))
    assert abs(pooled_mean_gain(scaled) - 1.0) < 1e-12
    assert np.allclose(simo_gains(scaled, [1]), simo_gains(snaps, [1]) / pooled, rtol=1e-12)


def test_normalize_constant_magnitude_set():
    coeffs = np.full((2, 2, 2), 2.0 + 0.0j)  # |h|^2 = 4 everywhere
    snaps = SnapshotSet(freqs_hz=np.array([1.0, 2.0]), coeffs=coeffs)
    assert pooled_mean_gain(snaps) == 4.0
    assert np.array_equal(simo_gains(snaps, [0]) / pooled_mean_gain(snaps), np.ones((2, 2)))


def test_normalize_rejects_all_zero():
    snaps = SnapshotSet(freqs_hz=np.array([1.0]), coeffs=np.zeros((1, 1, 1), dtype=complex))
    with pytest.raises(ValueError, match="all coefficients are zero; cannot normalize"):
        pooled_mean_gain(snaps)


def test_simo_gains_single_branch_and_additivity():
    snaps = _make_set(n_snapshots=5, n_branches=2, n_bins=3, seed=4)
    one = simo_gains(snaps, [0])
    # realized gains are a plain float (snapshots, bins) array
    assert type(one) is np.ndarray and one.dtype == float and one.shape == (5, 3)
    assert np.allclose(one, np.abs(snaps.coeffs[:, 0, :]) ** 2, rtol=1e-14)
    both = simo_gains(snaps, [0, 1])
    assert np.allclose(
        both,
        np.abs(snaps.coeffs[:, 0, :]) ** 2 + np.abs(snaps.coeffs[:, 1, :]) ** 2,
        rtol=1e-14,
    )
    assert np.all(both >= 0.0)
    # duplicating one branch's data across two branch ids doubles every gain
    doubled = SnapshotSet(
        freqs_hz=snaps.freqs_hz,
        coeffs=np.concatenate([snaps.coeffs[:, :1], snaps.coeffs[:, :1]], axis=1),
    )
    assert np.allclose(simo_gains(doubled, [0, 1]), 2.0 * one, rtol=1e-14)


def test_simo_gains_rejects_bad_branch_ids():
    snaps = _make_set()
    with pytest.raises(ValueError):
        simo_gains(snaps, [])
    with pytest.raises(ValueError):
        simo_gains(snaps, [0, 0])
    with pytest.raises(ValueError):
        simo_gains(snaps, [5])
    with pytest.raises(ValueError, match="invalid branch id"):  # one past the last branch
        simo_gains(snaps, [snaps.branches])


def test_simo_gain_means_lie_within_a_clt_bound():
    ch = ParallelChannel(theta=[1.0], shape=4.0, n0=1.0)
    snaps = generate_snapshots(ch, 100_000, seed=21, n_branches=4)
    means = simo_gains(snaps, range(4)).mean(axis=0)
    sigma = math.sqrt(4.0 / 100_000)  # Var = shape*theta^2 = 4
    assert abs(means[0] - 4.0) <= 4.0 * sigma


def test_generator_is_deterministic_and_validates():
    ch = build_decay_profile(3, 5e9, 6e9, 3.0, 1.0, 2, 1.0)
    a = generate_snapshots(ch, 20, seed=1, n_branches=2)
    b = generate_snapshots(ch, 20, seed=1, n_branches=2)
    c = generate_snapshots(ch, 20, seed=2, n_branches=2)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    with pytest.raises(ValueError):
        generate_snapshots(ch, 0, seed=1, n_branches=2)
    for bad in (0, -1, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="n_branches must be a positive integer"):
            generate_snapshots(ch, 5, seed=1, n_branches=bad)
    # the branch count is the caller's: a channel holds only each bin's law
    with pytest.raises(TypeError):
        generate_snapshots(ch, 5, seed=1)
    assert generate_snapshots(ch, 5, seed=1, n_branches=3).branches == 3
    for bad in (-1, -(2**70)):
        with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {bad}$"):
            generate_snapshots(ch, 5, seed=bad, n_branches=2)
    assert generate_snapshots(ch, 5, seed=0, n_branches=2).coeffs.shape == (5, 2, 3)


def test_generator_takes_coefficients_up_to_half_the_count_ceiling(monkeypatch):
    # a complex coefficient is 2 floats, so at most _COUNT_MAX // 2 of them, here 6 on 1 bin
    monkeypatch.setattr(ingest, "_COUNT_MAX", 13)
    ch = ParallelChannel(theta=[1.0], shape=4.0, n0=1.0)
    assert generate_snapshots(ch, 3, seed=0, n_branches=2).coeffs.shape == (3, 2, 1)
    with pytest.raises(ValueError, match=re.escape(
        "n_snapshots * n_branches * bins must be at most 6 coefficients, got 7 * 1 * 1"
    )):
        generate_snapshots(ch, 7, seed=0, n_branches=1)


def test_generator_takes_a_whole_seed_and_refuses_any_other_by_name():
    ch = build_decay_profile(3, 5e9, 6e9, 3.0, 1.0, 2, 1.0)
    # an integral float is the integer's seed
    whole = generate_snapshots(ch, 4, seed=2.0, n_branches=2)
    assert np.array_equal(whole.coeffs, generate_snapshots(ch, 4, seed=2, n_branches=2).coeffs)
    # a fraction is not truncated to a neighbouring seed, and a string is not read as a number
    for bad in (1.5, -0.5, "3", math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer, got "
                                             rf"{re.escape(repr(bad))}$"):
            generate_snapshots(ch, 4, seed=bad, n_branches=2)


@pytest.mark.parametrize("n_branches", [1, 2, 4, 8])
def test_generated_branches_sum_to_the_channel_law(n_branches):
    # Each branch draws Gamma(k/n_branches, theta), so the SIMO sum over all
    # branches is Gamma(k, theta) whatever the branch count.  Its mean and
    # second moment are theta*k and theta^2*k*(k+1); their standard errors
    # over N snapshots follow from the gamma moments
    #   E[g^j] = theta^j * k*(k+1)*...*(k+j-1).
    k, theta, n = 4.0, 0.5, 50_000
    ch = ParallelChannel(theta=[theta], shape=k, n0=1.0)
    snaps = generate_snapshots(ch, n, seed=17, n_branches=n_branches)
    g = simo_gains(snaps, range(n_branches))[:, 0]
    moment = [theta**j * math.prod(k + i for i in range(j)) for j in range(5)]
    se_mean = math.sqrt((moment[2] - moment[1] ** 2) / n)
    se_square = math.sqrt((moment[4] - moment[2] ** 2) / n)
    assert abs(g.mean() - theta * k) <= 4.0 * se_mean
    assert abs(np.mean(g**2) - theta**2 * k * (k + 1)) <= 4.0 * se_square


def test_pipeline_recovers_profile_means():
    # parse -> combine -> normalize -> average recovers gains proportional
    # to the profile means within sampling error
    ch = build_decay_profile(4, 5e9, 6e9, 3.0, 1.0, 4, 1.0)
    snaps = generate_snapshots(ch, 10_000, seed=9, n_branches=4)
    buf = io.StringIO()
    write_channel_csv(snaps, buf)
    buf.seek(0)
    parsed = parse_channel_csv(buf)
    gains = simo_gains(parsed, range(4)) / pooled_mean_gain(parsed)
    observed = gains.mean(axis=0)
    mu = ch.mean_gains
    expected = mu * 4.0 / mu.mean()  # SIMO combining gain over unit per-branch average
    sample_sigma = gains.std(axis=0, ddof=1) / math.sqrt(len(gains))
    assert np.all(np.abs(observed - expected) <= 4.0 * sample_sigma + 1e-9)


def test_snapshot_set_validation():
    for freqs in ([2.0, 1.0], [1.0, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            SnapshotSet(freqs_hz=np.array(freqs), coeffs=np.ones((1, 1, 2), dtype=complex))
    with pytest.raises(ValueError):
        SnapshotSet(freqs_hz=np.array([1.0]), coeffs=np.ones((1, 1, 2), dtype=complex))


@pytest.mark.parametrize("shape", [(1, 2), (1, 1, 1, 2), (0, 1, 2), (1, 0, 2), (1, 1, 0)])
def test_snapshot_set_refuses_coefficients_that_are_not_a_full_3d_array(shape):
    # not (snapshots, branches, bins), or with an empty axis
    with pytest.raises(ValueError, match=r"^coeffs must have shape \(snapshots, branches, bins\)$"):
        SnapshotSet(freqs_hz=np.array([1.0, 2.0]), coeffs=np.ones(shape, dtype=complex))


# --- parser contract: the first offending line in file order --------------

ROW = "0,0,0,5e9,1,0"


def _parse_error(body):
    with pytest.raises(ParseError) as info:
        parse_channel_csv(io.StringIO(f"{CSV_HEADER}\n{body}"))
    return info.value


def test_parse_rejects_negative_index_at_its_line():
    err = _parse_error("0,0,0,5e9,1,0\n0,0,1,6e9,1,0\n0,-1,0,5e9,1,0\n")
    assert err.line == 4
    assert str(err) == "line 4: indices must be 0-based nonnegative integers"


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("column", [3, 4, 5])
def test_parse_rejects_non_finite_fields_at_their_line(field, column):
    parts = "0,0,1,6e9,1,0".split(",")
    parts[column] = field
    err = _parse_error(f"{ROW}\n{','.join(parts)}\n")
    assert str(err) == "line 3: non-finite numeric field"


def test_parse_rejects_blank_line_mid_file():
    err = _parse_error(f"{ROW}\n\n0,0,1,6e9,1,0\n")
    assert str(err) == "line 3: blank line"
    err = _parse_error(f"{ROW}\r\n\r\n0,0,1,6e9,1,0\r\n")
    assert str(err) == "line 3: blank line"


def test_parse_reports_a_duplicate_at_its_second_occurrence():
    err = _parse_error(f"{ROW}\n0,0,1,6e9,1,0\n0,0,2,7e9,1,0\n0,0,1,6e9,2,0\n")
    assert str(err) == "line 5: duplicate cell (snapshot=0, branch=0, bin=1)"


def test_parse_reports_an_inconsistent_frequency_at_the_first_conflicting_row():
    body = f"0,0,1,6e9,1,0\n{ROW}\n1,0,0,5e9,1,0\n1,0,1,6.5e9,1,0\n2,0,1,7e9,1,0\n"
    err = _parse_error(body)
    assert str(err) == "line 5: inconsistent freq_hz for bin 1: 6500000000.0 vs 6000000000.0"


def test_parse_rejects_compensating_ragged_rows_at_the_first():
    # 7 fields then 5: twelve fields in all, as two sound rows would have
    err = _parse_error(f"{ROW}\n0,0,1,6e9,1,0,9\n0,0,2,7e9,1\n")
    assert str(err) == "line 3: expected 6 fields, got 7"


def test_parse_reports_the_earlier_of_a_duplicate_and_a_later_non_numeric_row():
    err = _parse_error(f"{ROW}\n{ROW}\n0,0,1,6e9,1,0\nx,0,2,7e9,1,0\n")
    assert err.line == 3
    assert "duplicate cell (snapshot=0, branch=0, bin=0)" in str(err)


def test_parse_reports_the_earlier_of_a_non_numeric_row_and_a_later_duplicate():
    err = _parse_error(f"{ROW}\n0,0,1,6e9,x,0\n{ROW}\n")
    assert str(err) == "line 3: non-numeric field in '0,0,1,6e9,x,0'"


def test_parse_lone_row_at_a_huge_bin_is_a_missing_cell_without_allocating():
    tracemalloc.start()
    try:
        err = _parse_error(f"0,0,{10**12},5e9,1,0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err) == "missing cell (snapshot=0, branch=0, bin=0)"
    assert err.line is None
    assert peak < 8 * 2**20


def test_parse_index_past_int64_is_a_non_numeric_field_after_earlier_faults():
    err = _parse_error(f"0,0,{2**70},5e9,1,0\n")
    assert str(err) == f"line 2: non-numeric field in '0,0,{2**70},5e9,1,0'"
    err = _parse_error(f"{ROW}\n{ROW}\n0,0,{2**70},5e9,1,0\n")
    assert str(err) == "line 3: duplicate cell (snapshot=0, branch=0, bin=0)"
    # the largest int64 is still an index: a lone row there is a missing cell
    err = _parse_error(f"0,0,{2**63 - 1},5e9,1,0\n")
    assert str(err) == "missing cell (snapshot=0, branch=0, bin=0)"
    err = _parse_error(f"0,0,{2**63},5e9,1,0\n")
    assert str(err) == f"line 2: non-numeric field in '0,0,{2**63},5e9,1,0'"


# literals that Python's int() or float() reads but the format does not
NON_NUMERIC_ROWS = {
    "index-1_0": "1_0,0,0,5e9,1,0",
    "fullwidth-digit": "0,0,\uff11,6e9,1,0",
    "index-1.0": "0,1.0,0,5e9,1,0",
    "real-1_000.5": "0,0,1,6e9,1_000.5,0",
}


@pytest.mark.parametrize("row", NON_NUMERIC_ROWS.values(), ids=NON_NUMERIC_ROWS.keys())
def test_parse_rejects_literals_outside_the_format_at_their_line(row):
    err = _parse_error(f"{ROW}\n{row}\n")
    assert str(err) == f"line 3: non-numeric field in {row!r}"


@pytest.mark.parametrize("row", ["0,1.5,0,5e9,1,0", "1e3,0,0,5e9,1,0"])
def test_parse_rejects_an_index_that_older_numpy_reads_through_float(row, monkeypatch):
    # numpy 1.23's reader parses such an index as a float and truncates it,
    # warning DeprecationWarning; a warning raised as an error is a ValueError
    real_loadtxt = np.loadtxt

    def older_loadtxt(rows, dtype, **kwargs):
        try:
            return real_loadtxt(rows, dtype=dtype, **kwargs)
        except ValueError:
            as_floats = real_loadtxt(rows, dtype=[(name, "f8") for name in dtype.names], **kwargs)
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string") from exc
            return as_floats.astype(dtype)

    monkeypatch.setattr(np, "loadtxt", older_loadtxt)
    err = _parse_error(f"{ROW}\n{row}\n")
    assert str(err) == f"line 3: non-numeric field in {row!r}"


FAULTY_BODIES = {
    **{name: f"{ROW}\n{row}\n" for name, row in NON_NUMERIC_ROWS.items()},
    "blank": f"{ROW}\n0,0,1,6e9,1,0\n\n",
    "ragged": f"{ROW}\n0,0,1,6e9,1,0,9\n0,0,2,7e9,1\n",
    "duplicate": f"{ROW}\n{ROW}\n0,0,1,6e9,1,0\nx,0,2,7e9,1,0\n",
    "freq": f"0,0,1,6e9,1,0\n{ROW}\n1,0,0,5e9,1,0\n1,0,1,6.5e9,1,0\n",
    "negative": f"{ROW}\n0,0,1,6e9,1,0\n0,-1,0,5e9,1,0\n",
    "non-finite": f"{ROW}\n0,0,1,6e9,nan,0\n",
    "missing": f"{ROW}\n1,0,0,5e9,1,0\n0,1,0,5e9,1,0\n",
}


@pytest.mark.parametrize("body", FAULTY_BODIES.values(), ids=FAULTY_BODIES.keys())
def test_parse_reports_the_same_fault_whatever_the_block_size(body, monkeypatch):
    # blocks of a few characters split rows and faults across many reads
    expected = str(_parse_error(body))
    for size in (1, 5, 16, 41):
        monkeypatch.setattr(ingest, "_READ_SIZE", size)
        assert str(_parse_error(body)) == expected
        data = f"{CSV_HEADER}\n{body}".encode()
        with pytest.raises(ParseError, match=re.escape(expected)):
            parse_channel_csv(io.BytesIO(data))


def test_parse_reports_undecodable_bytes_before_any_fault(tmp_path, monkeypatch):
    path = tmp_path / "bad.csv"
    # at 8 bytes a read, the ragged row on line 3 is read blocks before the
    # undecodable byte on line 5; at the default size all is one block
    path.write_bytes(f"{CSV_HEADER}\n{ROW}\n0,0,1\n{ROW}\n".encode() + b"0,0,1,6e9,\xff,0\n")
    for read_size in (8, ingest._READ_SIZE):
        monkeypatch.setattr(ingest, "_READ_SIZE", read_size)
        # unbuffered, each read may be short and readline finishes its line byte by byte
        with open(path, "rb", buffering=0) as raw:
            for source in (path, io.BytesIO(path.read_bytes()), raw):
                with pytest.raises(ParseError, match="^line 5: byte 0xff is not valid UTF-8$") as err:
                    parse_channel_csv(source)
                assert err.value.line == 5, (read_size, source)


def test_parse_reads_a_text_source_to_each_lines_newline(monkeypatch):
    # with newline="" a text file's readline also stops at a lone "\r", which
    # is no line end of the format: the row "0,0,1,6e9,1,\r0" stays one row
    # wherever a read ends, and its field "\r0" is no number
    body = f"{CSV_HEADER}\r\n{ROW}\r\n0,0,1,6e9,1,\r0\r\n"
    expected = "line 3: non-numeric field in '0,0,1,6e9,1,\\r0'"
    for size in (1, 5, 16, 41, ingest._READ_SIZE):
        monkeypatch.setattr(ingest, "_READ_SIZE", size)
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            parse_channel_csv(io.StringIO(body, newline=""))


# --- writer: byte-identical to the row-by-row definition --------------------

EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-310, 1e-5, -1e-5,
    1e16, -1e16, -1.2345678901234567e300, 0.1, -2.5, 1.7976931348623157e308, 1.0 / 3.0,
]


def _oracle_csv(snapshots):
    rows = [CSV_HEADER]
    for s in range(snapshots.snapshots):
        for b in range(snapshots.branches):
            for k in range(snapshots.n_bins):
                h = snapshots.coeffs[s, b, k]
                f = float(snapshots.freqs_hz[k])
                rows.append(f"{s},{b},{k},{f!r},{float(h.real)!r},{float(h.imag)!r}")
    return "\n".join(rows) + "\n"


def _edge_set():
    rng = np.random.default_rng(5)
    values = np.array(EDGE_FLOATS)
    re_part = rng.choice(values, size=(3, 2, 4))
    im_part = rng.choice(values, size=(3, 2, 4))
    coeffs = np.empty((3, 2, 4), dtype=complex)
    coeffs.real, coeffs.imag = re_part, im_part
    return SnapshotSet(freqs_hz=np.array([5e-324, 1e-5, 1.0, 1e16]), coeffs=coeffs)


def test_writer_matches_the_row_by_row_definition(tmp_path):
    snaps = _edge_set()
    expected = _oracle_csv(snaps)
    buf = io.StringIO()
    write_channel_csv(snaps, buf)
    assert buf.getvalue() == expected
    path = tmp_path / "chan.csv"
    write_channel_csv(snaps, path)
    assert path.read_bytes() == expected.encode("utf-8")
    for many_rows in (_make_set(n_snapshots=7, n_branches=3, n_bins=5, seed=2),):
        buf = io.StringIO()
        write_channel_csv(many_rows, buf)
        assert buf.getvalue() == _oracle_csv(many_rows)


def test_edge_floats_round_trip_bit_for_bit():
    snaps = _edge_set()
    buf = io.StringIO()
    write_channel_csv(snaps, buf)
    buf.seek(0)
    back = parse_channel_csv(buf)
    assert back.coeffs.tobytes() == snaps.coeffs.tobytes()
    assert back.freqs_hz.tobytes() == snaps.freqs_hz.tobytes()


def test_failing_chunks_leave_the_previous_file_and_no_temporary(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("previous\n")

    def chunks():
        yield "first,"
        yield "second,"
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        _write_atomic(path, chunks())
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    _write_atomic(path, iter(["a,", "b\n"]))
    assert path.read_text() == "a,b\n"
    _write_atomic(path, "whole text\n")
    assert path.read_text() == "whole text\n"


def test_parse_reports_a_repeat_with_another_frequency_as_a_duplicate():
    err = _parse_error(f"{ROW}\n0,0,0,6e9,1,0\n")
    assert str(err) == "line 3: duplicate cell (snapshot=0, branch=0, bin=0)"


# --- the dense check and the sorting reporter --------------------------------


def _shuffled_rows(seed, shape=(3, 2, 5)):
    buf = io.StringIO()
    write_channel_csv(_make_set(*shape, seed=seed), buf)
    rows = buf.getvalue().splitlines()[1:]
    np.random.default_rng(seed).shuffle(rows)
    return rows


def _repeat(rows, i, j):
    # row i takes row j's cell and frequency, so that cell repeats and row i's is missing
    rows[i] = ",".join(rows[j].split(",")[:4] + rows[i].split(",")[4:])


def _refreq(rows, i):
    parts = rows[i].split(",")
    rows[i] = ",".join(parts[:3] + [repr(1.5 * float(parts[3]))] + parts[4:])


CROSS_ROW_FAULTS = {
    "repeat": lambda rows, first, second, j: _repeat(rows, first, j),
    "freq": lambda rows, first, second, j: _refreq(rows, first),
    "repeat-then-freq": lambda rows, first, second, j: (_repeat(rows, first, j),
                                                        _refreq(rows, second)),
    "freq-then-repeat": lambda rows, first, second, j: (_refreq(rows, first),
                                                        _repeat(rows, second, j)),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fault", CROSS_ROW_FAULTS.values(), ids=CROSS_ROW_FAULTS.keys())
def test_dense_check_hands_every_cross_row_fault_to_the_reporter(fault, seed, monkeypatch):
    # as many rows as cells, so the parse takes the dense path; the fault it
    # reports is the one the sorting reporter finds on the whole file
    rows = _shuffled_rows(seed)
    a, b, j = np.random.default_rng(seed).choice(len(rows), size=3, replace=False).tolist()
    fault(rows, min(a, b), max(a, b), j)
    with pytest.raises(ParseError) as oracle:
        ingest._check_across_rows(ingest._read(rows))
    dense = []
    scatter = ingest._scatter
    monkeypatch.setattr(ingest, "_scatter", lambda *args: dense.append(scatter(*args)) or dense[-1])
    for size in (1, 7, 64, ingest._READ_SIZE):
        monkeypatch.setattr(ingest, "_READ_SIZE", size)
        err = _parse_error("\n".join(rows) + "\n")
        assert (str(err), err.line) == (str(oracle.value), oracle.value.line), size
    assert dense == [None] * 4


def _first_fault_by_brute_force(rows):
    # a repeated cell at its second line in file order, else the first cell
    # in rank order that no row holds
    seen = set()
    for line, row in enumerate(rows, start=2):
        s, b, k = (int(i) for i in row.split(",")[:3])
        if (s, b, k) in seen:
            return f"line {line}: duplicate cell (snapshot={s}, branch={b}, bin={k})"
        seen.add((s, b, k))
    shape = [max(cell[i] for cell in seen) + 1 for i in range(3)]
    s, b, k = next(cell for cell in itertools.product(*map(range, shape)) if cell not in seen)
    return f"missing cell (snapshot={s}, branch={b}, bin={k})"


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("repeat", [False, True], ids=["missing", "missing-then-repeat"])
def test_one_sort_reports_a_missing_cell_or_a_later_repeat(repeat, seed, monkeypatch):
    # one row removed, and in the second case a later row repeated further on, so
    # that the file has as many rows as cells; two blocks even at the default size
    rows = _shuffled_rows(seed, shape=(12, 4, 100))
    gone, copied, at = np.sort(np.random.default_rng(seed).choice(len(rows), 3, replace=False))
    if repeat:
        rows.insert(at, rows[copied])
    del rows[gone]
    text = "\n".join(rows) + "\n"
    assert len(text) > ingest._READ_SIZE
    expected = _first_fault_by_brute_force(rows)
    # the one sort is a lexsort: no np.unique or np.argsort sorts again
    sorts = []
    for name in ("lexsort", "unique", "argsort"):
        def counted(*args, sort=getattr(np, name), name=name, **kwargs):
            sorts.append(name)
            return sort(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    for size in (1, 7, 64, ingest._READ_SIZE):
        monkeypatch.setattr(ingest, "_READ_SIZE", size)
        sorts.clear()
        assert (str(_parse_error(text)), sorts) == (expected, ["lexsort"]), size


def test_parse_peak_memory_holds_each_record_once():
    # the records (48 B a row) and the coefficients (16 B a cell) once, a
    # 1-byte mark per cell and the bins' frequencies, plus what one block of
    # _READ_SIZE characters can hold while it is read
    snaps = _make_set(n_snapshots=25, n_branches=4, n_bins=1000)
    buf = io.StringIO()
    write_channel_csv(snaps, buf)
    text = buf.getvalue()
    lengths = [len(line) + 1 for line in text.splitlines()]  # with their "\n"
    chars = ingest._READ_SIZE + max(lengths)  # a read and the rest of its last line
    rows = chars // min(lengths) + 1
    block = (
        4 * chars  # the read, its cut, the joined bytes and their decoded text
        + chars + rows * (sys.getsizeof("") + 8)  # its line strings and their list
        + 2 * rows * ingest._RECORD.itemsize  # its records and the reader's working copy
    )
    n_rows, n_bins = snaps.coeffs.size, snaps.n_bins
    bound = (ingest._RECORD.itemsize + 16 + 1) * n_rows + 8 * n_bins + block
    source = io.BytesIO(text.encode())
    tracemalloc.start()
    try:
        back = parse_channel_csv(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.coeffs.tobytes() == snaps.coeffs.tobytes()
    assert peak <= bound, (peak / n_rows, bound / n_rows)
