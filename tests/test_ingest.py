import io
import math

import numpy as np
import pytest

from simocap.channel import ParallelChannel, build_decay_profile
from simocap.ingest import (
    CSV_HEADER,
    NormalizationError,
    ParseError,
    SnapshotSet,
    empirical_means,
    generate_snapshots,
    normalize_unit_mean,
    parse_channel_csv,
    pooled_mean_gain,
    simo_gains,
    write_channel_csv,
)

MINIMAL = f"{CSV_HEADER}\n0,0,0,5e9,1,0\n"


def _make_set(n_snapshots=3, n_branches=2, n_bins=2, seed=0):
    ch = build_decay_profile(n_bins, 5e9, 6e9, 3.0, 1.0, n_branches, 1.0, 1.0)
    return generate_snapshots(ch, n_snapshots, seed=seed)


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
    body = f"{CSV_HEADER}\n0,0,0,6e9,1,0\n0,0,1,5e9,1,0\n"
    with pytest.raises(ParseError, match="strictly increasing"):
        parse_channel_csv(io.StringIO(body))


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


def test_normalize_unit_mean_postconditions():
    snaps = _make_set(n_snapshots=10, seed=3)
    normalized = normalize_unit_mean(snaps)
    assert abs(pooled_mean_gain(normalized) - 1.0) < 1e-12
    twice = normalize_unit_mean(normalized)
    assert np.allclose(twice.coeffs, normalized.coeffs, rtol=1e-12)
    # ratios between cells are preserved exactly up to one common scale
    ratio = normalized.coeffs / snaps.coeffs
    assert np.allclose(ratio, ratio.flat[0], rtol=1e-12)


def test_normalize_constant_magnitude_set():
    coeffs = np.full((2, 2, 2), 2.0 + 0.0j)  # |h|^2 = 4 everywhere
    snaps = SnapshotSet(freqs_hz=np.array([1.0, 2.0]), coeffs=coeffs)
    normalized = normalize_unit_mean(snaps)
    assert np.allclose(np.abs(normalized.coeffs), 1.0, rtol=1e-14)


def test_normalize_rejects_all_zero():
    snaps = SnapshotSet(freqs_hz=np.array([1.0]), coeffs=np.zeros((1, 1, 1), dtype=complex))
    with pytest.raises(NormalizationError):
        normalize_unit_mean(snaps)


def test_simo_gains_single_branch_and_additivity():
    snaps = _make_set(n_snapshots=5, n_branches=2, n_bins=3, seed=4)
    one = simo_gains(snaps, [0])
    assert np.allclose(one.values, np.abs(snaps.coeffs[:, 0, :]) ** 2, rtol=1e-14)
    both = simo_gains(snaps, [0, 1])
    assert np.allclose(
        both.values,
        np.abs(snaps.coeffs[:, 0, :]) ** 2 + np.abs(snaps.coeffs[:, 1, :]) ** 2,
        rtol=1e-14,
    )
    assert np.all(both.values >= 0.0)
    # duplicating one branch's data across two branch ids doubles every gain
    doubled = SnapshotSet(
        freqs_hz=snaps.freqs_hz,
        coeffs=np.concatenate([snaps.coeffs[:, :1], snaps.coeffs[:, :1]], axis=1),
    )
    assert np.allclose(simo_gains(doubled, [0, 1]).values, 2.0 * one.values, rtol=1e-14)


def test_simo_gains_rejects_bad_branch_ids():
    snaps = _make_set()
    with pytest.raises(ValueError):
        simo_gains(snaps, [])
    with pytest.raises(ValueError):
        simo_gains(snaps, [0, 0])
    with pytest.raises(ValueError):
        simo_gains(snaps, [5])


def test_empirical_means_behaviour():
    snaps = _make_set(n_snapshots=6, seed=8)
    gains = simo_gains(snaps, range(snaps.branches))
    means = empirical_means(gains)
    assert means.shape == (snaps.n_bins,)
    single = type(gains)(values=gains.values[:1], seed=None)
    assert np.array_equal(empirical_means(single), gains.values[0])
    rng = np.random.default_rng(0)
    shuffled = type(gains)(values=gains.values[rng.permutation(6)], seed=None)
    assert np.allclose(empirical_means(shuffled), means, rtol=1e-14)


def test_empirical_means_clt_bound():
    ch = ParallelChannel(theta=[1.0], m=1.0, L=4, n0=1.0, p_total=1.0)
    snaps = generate_snapshots(ch, 100_000, seed=21)
    means = empirical_means(simo_gains(snaps, range(4)))
    sigma = math.sqrt(4.0 / 100_000)  # Var = m*L*theta^2 = 4
    assert abs(means[0] - 4.0) <= 4.0 * sigma


def test_generator_is_deterministic_and_validates():
    ch = build_decay_profile(3, 5e9, 6e9, 3.0, 1.0, 2, 1.0, 1.0)
    a = generate_snapshots(ch, 20, seed=1)
    b = generate_snapshots(ch, 20, seed=1)
    c = generate_snapshots(ch, 20, seed=2)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    with pytest.raises(ValueError):
        generate_snapshots(ch, 0, seed=1)
    mixed = ParallelChannel(theta=[1.0, 1.0], m=1.0, L=[2, 3], n0=1.0, p_total=1.0)
    with pytest.raises(ValueError):
        generate_snapshots(mixed, 5, seed=1)
    explicit = generate_snapshots(mixed, 5, seed=1, n_branches=2)
    assert explicit.branches == 2


def test_pipeline_recovers_profile_means():
    # parse -> normalize -> combine -> average recovers gains proportional
    # to the profile means within sampling error
    ch = build_decay_profile(4, 5e9, 6e9, 3.0, 1.0, 4, 1.0, 1.0)
    snaps = generate_snapshots(ch, 10_000, seed=9)
    buf = io.StringIO()
    write_channel_csv(snaps, buf)
    buf.seek(0)
    parsed = parse_channel_csv(buf)
    normalized = normalize_unit_mean(parsed)
    gains = simo_gains(normalized, range(4))
    observed = empirical_means(gains)
    mu = ch.mean_gains
    expected = mu * 4.0 / mu.mean()  # SIMO combining gain over unit per-branch average
    sample_sigma = gains.values.std(axis=0, ddof=1) / math.sqrt(gains.snapshots)
    assert np.all(np.abs(observed - expected) <= 4.0 * sample_sigma + 1e-9)


def test_snapshot_set_validation():
    with pytest.raises(ValueError):
        SnapshotSet(freqs_hz=np.array([2.0, 1.0]), coeffs=np.ones((1, 1, 2), dtype=complex))
    with pytest.raises(ValueError):
        SnapshotSet(freqs_hz=np.array([1.0]), coeffs=np.ones((1, 1, 2), dtype=complex))
