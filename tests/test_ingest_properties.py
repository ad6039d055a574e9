"""Property test: channel CSV write and parse reproduce a SnapshotSet exactly."""

import io
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from simocap import ingest  # noqa: E402
from simocap.ingest import SnapshotSet, parse_channel_csv, write_channel_csv  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def snapshot_sets(draw):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    freqs = draw(st.lists(finite, min_size=shape[2], max_size=shape[2], unique=True))
    parts = draw(st.lists(finite, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
    coeffs = np.empty(shape, dtype=complex)
    coeffs.real = np.reshape(parts[0::2], shape)
    coeffs.imag = np.reshape(parts[1::2], shape)
    return SnapshotSet(freqs_hz=np.sort(freqs), coeffs=coeffs)


@settings(max_examples=150, deadline=None)
@given(
    snapshot_sets(),
    st.randoms(use_true_random=False),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, "low", "high", "both"]),
    st.sampled_from([3, 64, ingest._READ_SIZE]),
)
def test_shuffled_rows_round_trip_exactly(snaps, rng, crlf, last_eol, band, read_size):
    buf = io.StringIO()
    write_channel_csv(snaps, buf)
    header, *rows = buf.getvalue().splitlines()
    rng.shuffle(rows)
    eol = "\r\n" if crlf else "\n"
    text = eol.join([header] + rows) + (eol if last_eol else "")

    freqs = snaps.freqs_hz
    lo = freqs[rng.randrange(freqs.size)] if band in ("low", "both") else None
    hi = freqs[rng.randrange(freqs.size)] if band in ("high", "both") else None
    keep = np.ones(freqs.size, dtype=bool)
    if lo is not None:
        keep &= freqs >= lo
    if hi is not None:
        keep &= freqs <= hi
    with mock.patch.object(ingest, "_READ_SIZE", read_size):
        if not keep.any():
            with pytest.raises(ingest.ParseError, match="band filter selected no bins"):
                parse_channel_csv(io.StringIO(text), f_min_hz=lo, f_max_hz=hi)
            return
        back = parse_channel_csv(io.BytesIO(text.encode()), f_min_hz=lo, f_max_hz=hi)

    assert back.freqs_hz.tobytes() == freqs[keep].tobytes()
    assert back.coeffs.tobytes() == snaps.coeffs[:, :, keep].tobytes()
    rewritten = io.StringIO()
    write_channel_csv(back, rewritten)
    expected = io.StringIO()
    write_channel_csv(SnapshotSet(freqs_hz=freqs[keep], coeffs=snaps.coeffs[:, :, keep]), expected)
    assert rewritten.getvalue() == expected.getvalue()
