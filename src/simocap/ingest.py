"""Measured channel data: a flat CSV interchange format and the SIMO chain.

The interchange format is one row per complex frequency-response
coefficient:

    snapshot,branch,bin,freq_hz,re,im

with 0-based integer indices in the first three columns, decimal reals in
the rest, LF or CRLF line endings, and exactly one row for every
(snapshot, branch, bin) cell.  Processing follows
parse -> simo_gains / pooled_mean_gain -> fit_gamma_moments: SIMO gains
sum |h|^2 over the selected branches, turning frequency bins into
parallel subchannels, and dividing them by the pooled mean of |h|^2 over
snapshots, branches and bins normalizes every coefficient by one scalar
(per-branch normalization would distort SIMO combining).  The realized
gains are a plain (snapshots, bins) array, and the moment fit reduces
all of its columns at once.
"""

import math
import os
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .channel import _COUNT_MAX, ParallelChannel, _positive_integer

__all__ = [
    "CSV_HEADER",
    "ParseError",
    "SnapshotSet",
    "parse_channel_csv",
    "write_channel_csv",
    "generate_snapshots",
    "pooled_mean_gain",
    "simo_gains",
]

CSV_HEADER = "snapshot,branch,bin,freq_hz,re,im"


class ParseError(ValueError):
    """Malformed channel CSV; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Dense complex frequency responses indexed by (snapshot, branch, bin)."""

    freqs_hz: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs_hz, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 3 or min(coeffs.shape) < 1:
            raise ValueError("coeffs must have shape (snapshots, branches, bins)")
        if freqs.ndim != 1 or freqs.size != coeffs.shape[2]:
            raise ValueError("freqs_hz must have one entry per bin")
        if not np.all(freqs[1:] > freqs[:-1]):  # no np.diff: it overflows past +-1.8e308
            raise ValueError("freqs_hz must be strictly increasing")

    @property
    def snapshots(self) -> int:
        return self.coeffs.shape[0]

    @property
    def branches(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_bins(self) -> int:
        return self.coeffs.shape[2]


_READ_SIZE = 1 << 18  # characters per read: about 4,000 rows of a typical file


def parse_channel_csv(
    source, f_min_hz: float | None = None, f_max_hz: float | None = None
) -> SnapshotSet:
    """Parse the channel CSV format into a dense SnapshotSet.

    ``source`` is a path or a readable file object.  Row order is
    immaterial; duplicate or missing cells, ragged rows, non-numeric
    fields, and inconsistent per-bin frequencies are rejected with the
    first offending line number in file order; bytes that are not UTF-8
    are reported first, wherever they are.  An optional inclusive
    [f_min_hz, f_max_hz] filter keeps only the bins inside the band; it
    must keep at least one.  Indices are ASCII decimal integers within
    int64, optionally signed and padded with blanks; reals are decimal or
    exponent literals.  Rows are read in blocks, each converted by one
    ``np.loadtxt`` call; peak memory is about twice the size of the file.
    """
    with nullcontext(source) if hasattr(source, "read") else open(source, "rb") as fh:
        blocks = _line_blocks(fh)
        try:
            return _parse_blocks(blocks, f_min_hz, f_max_hz)
        except ParseError:
            for _ in blocks:  # decode to the end first, so a bad byte anywhere wins
                pass
            raise


def _line_blocks(fh):
    # lists of lines without their endings, about _READ_SIZE characters
    # at a time; decoding bytes block by block is exact because a "\n"
    # byte never falls inside a UTF-8 character
    pending, line = [], 1  # the file line that starts the next block
    while data := fh.read(_READ_SIZE):
        cut = data.rfind(b"\n" if isinstance(data, bytes) else "\n") + 1
        if cut:
            lines = _split_lines(data[:0].join(pending + [data[:cut]]), line)
            line += len(lines)
            yield lines
            pending = []
        pending.append(data[cut:])
    if any(pending):
        yield _split_lines(pending[0][:0].join(pending), line)


def _split_lines(text, line: int) -> list[str]:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line += text.count(b"\n", 0, exc.start)
            raise ParseError(f"byte {text[exc.start]:#04x} is not valid UTF-8", line=line) from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r") for line in lines] if "\r" in text else lines


def _parse_blocks(blocks, f_min_hz, f_max_hz) -> SnapshotSet:
    lines = next(blocks, None)
    if lines is None:
        raise ParseError("empty input")
    if lines[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {lines[0]!r}", line=1)
    tables, n_rows = [], 0
    for rows in chain([lines[1:]], blocks):
        try:
            tables.append(_records(rows))
        except ValueError:
            i, message = next((i, msg) for i, row in enumerate(rows) if (msg := _row_fault(row)))
            tables.append(_records(rows[:i]))
            _check_across_rows(np.concatenate(tables))  # a fault on an earlier line wins
            raise ParseError(message, line=n_rows + i + 2) from None
        n_rows += len(rows)
    table = np.concatenate(tables)
    del tables
    _check_across_rows(table)

    if not n_rows:
        raise ParseError("no data rows")
    s, b, k = table["s"], table["b"], table["k"]
    shape = tuple(int(index.max()) + 1 for index in (s, b, k))  # Python ints: no overflow
    if n_rows != math.prod(shape):
        s0, b0, k0 = _first_missing(s, b, k, shape)
        raise ParseError(f"missing cell (snapshot={s0}, branch={b0}, bin={k0})")
    freqs = np.empty(shape[2])
    freqs[k] = table["freq"]  # every row of a bin carries the same frequency
    keep = np.ones(shape[2], dtype=bool)
    if f_min_hz is not None:
        keep &= freqs >= f_min_hz
    if f_max_hz is not None:
        keep &= freqs <= f_max_hz
    if not keep.any():
        raise ParseError("band filter selected no bins")
    kept = freqs[keep]
    if not np.all(kept[1:] > kept[:-1]):
        raise ParseError("freq_hz must be strictly increasing across bins")
    coeffs = np.empty(shape, dtype=complex)
    coeffs.real[s, b, k] = table["re"]  # part by part: a complex sum would lose -0.0
    coeffs.imag[s, b, k] = table["im"]
    return SnapshotSet(freqs_hz=kept, coeffs=coeffs if keep.all() else coeffs[:, :, keep])


_RECORD = np.dtype([("s", "i8"), ("b", "i8"), ("k", "i8"),
                    ("freq", "f8"), ("re", "f8"), ("im", "f8")])


def _read(rows: list[str]) -> np.ndarray:
    # the one converter from fields to numbers: ASCII decimal integers within int64 and
    # decimal or exponent reals, else ValueError, also where older numpy warns and truncates
    with warnings.catch_warnings():  # an index such as 1.5 or 1e3 there: DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(rows, delimiter=",", dtype=_RECORD, comments=None, quotechar=None,
                          ndmin=1)


def _records(rows: list[str]) -> np.ndarray:
    # the records of rows that are each sound on their own, else
    # ValueError; the reader would skip a blank line and warn on no rows
    if not rows:
        return np.empty(0, _RECORD)
    if "" in rows or _value_fault(table := _read(rows)):
        raise ValueError("faulty row")
    return table


def _row_fault(row: str) -> str | None:
    # the first fault of one row on its own, in the order they are checked
    parts = row.split(",")
    if row == "":
        return "blank line"
    if len(parts) != 6:
        return f"expected 6 fields, got {len(parts)}"
    try:
        table = _read([row])
    except ValueError:
        return f"non-numeric field in {row!r}"
    return _value_fault(table)


def _value_fault(table) -> str | None:
    if min(table[index].min() for index in "sbk") < 0:
        return "indices must be 0-based nonnegative integers"
    if not all(np.isfinite(table[real]).all() for real in ("freq", "re", "im")):
        return "non-finite numeric field"
    return None


def _check_across_rows(table) -> None:
    # the first row in file order that repeats an earlier cell or differs
    # from the first frequency of its bin; on one row the repeat is reported
    s, b, k, freq = (table[name] for name in ("s", "b", "k", "freq"))
    order = np.lexsort((k, b, s))  # stable: a cell's first row sorts first
    same = np.logical_and.reduce([i[order][1:] == i[order][:-1] for i in (s, b, k)])
    dup = order[1:][same].min(initial=len(s))
    _, first, inverse = np.unique(k, return_index=True, return_inverse=True)
    clash = np.flatnonzero(freq != freq[first][inverse])
    if clash.size and clash[0] < dup:
        i = int(clash[0])
        raise ParseError(f"inconsistent freq_hz for bin {k[i]}: {float(freq[i])!r} vs "
                         f"{float(freq[first[inverse[i]]])!r}", line=i + 2)
    if dup < len(s):
        raise ParseError(f"duplicate cell (snapshot={s[dup]}, branch={b[dup]}, bin={k[dup]})",
                         line=int(dup) + 2)


def _first_missing(s, b, k, shape) -> tuple[int, int, int]:
    # the rows hold distinct cells of shape, but not all: the first missing
    # cell has the first rank that the rows in sorted order skip
    _, n_b, n_k = shape

    def cell(rank):
        return rank // (n_b * n_k), rank // n_k % n_b, rank % n_k

    order = np.lexsort((k, b, s))
    present = zip(s[order].tolist(), b[order].tolist(), k[order].tolist())
    return cell(next((r for r, c in enumerate(present) if c != cell(r)), len(order)))


def write_channel_csv(snapshots: SnapshotSet, dest) -> None:
    """Serialize a SnapshotSet to the channel CSV format (LF endings).

    Floats are written with shortest round-trip precision, so
    write -> parse reproduces the set exactly.  The text is produced one
    snapshot at a time, for a file object or atomically for a path.
    """
    chunks = _csv_chunks(snapshots)
    if hasattr(dest, "write"):
        for chunk in chunks:
            dest.write(chunk)
    else:
        _write_atomic(dest, chunks)


def _csv_chunks(snapshots: SnapshotSet):
    yield CSV_HEADER + "\n"
    bins = [f"{k},{freq!r}," for k, freq in enumerate(snapshots.freqs_hz.tolist())]
    for s, snapshot in enumerate(snapshots.coeffs):
        yield "".join([
            f"{s},{b},{bin_}{re!r},{im!r}\n"
            for b, h in enumerate(snapshot)
            for bin_, re, im in zip(bins, h.real.tolist(), h.imag.tolist())
        ])


def _write_atomic(path, chunks) -> None:
    # chunks, one str or an iterable of them, go to a temporary file next
    # to path that replaces it only once fully written, so a failed write
    # leaves any previous path as it was
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            for chunk in [chunks] if isinstance(chunks, str) else chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def generate_snapshots(
    channel: ParallelChannel,
    n_snapshots: int,
    seed: int,
    n_branches: int,
) -> SnapshotSet:
    """Synthesize format-conformant snapshots from a parallel channel.

    Each of the n_branches coefficients of bin n has an independent
    Gamma(shape_n/n_branches, theta_n) power gain and a uniform phase, so
    summing |h|^2 over all branches reproduces the Gamma(shape_n, theta_n)
    subchannel gains.  Output is bit-exact reproducible per seed.  Bin
    frequencies come from the channel's ``freqs_hz`` (an increasing index
    grid if it has none).
    """
    _positive_integer("n_snapshots", n_snapshots)
    _positive_integer("n_branches", n_branches)
    if int(seed) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if int(n_snapshots) * int(n_branches) * channel.n > _COUNT_MAX // 2:  # complex: 2 floats
        raise ValueError(
            f"n_snapshots * n_branches * bins must be at most {_COUNT_MAX // 2} coefficients, "
            f"got {n_snapshots} * {n_branches} * {channel.n}"
        )

    if channel.freqs_hz is None:
        freqs = np.arange(1.0, channel.n + 1.0) * 1e6
    else:
        freqs = channel.freqs_hz

    rng = np.random.default_rng(int(seed))
    shape = (int(n_snapshots), int(n_branches))
    coeffs = np.empty(shape + (channel.n,), dtype=complex)
    for n in range(channel.n):
        power = rng.gamma(shape=channel.shape[n] / n_branches, scale=channel.theta[n], size=shape)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        coeffs[:, :, n] = np.sqrt(power) * np.exp(1j * phase)
    return SnapshotSet(freqs_hz=freqs, coeffs=coeffs)


def pooled_mean_gain(snapshots: SnapshotSet) -> float:
    """Mean of |h|^2 pooled over snapshots, branches, and bins: the unit-mean normalizer.

    Dividing gains by it is one real scale on every coefficient, after which
    the gains of all B branches, ``simo_gains(s, range(B)) / pooled_mean_gain(s)``,
    average to B.  All-zero coefficients cannot be normalized: ValueError.
    """
    pooled = float(np.mean(np.abs(snapshots.coeffs) ** 2))
    if pooled <= 0.0:
        raise ValueError("all coefficients are zero; cannot normalize")
    return pooled


def simo_gains(snapshots: SnapshotSet, branch_ids) -> np.ndarray:
    """Combined SIMO gains: sum of |h|^2 over the selected branches, a (snapshots, bins) array."""
    ids = list(branch_ids)
    if not ids:
        raise ValueError("branch_ids must be non-empty")
    if len(set(ids)) != len(ids):
        raise ValueError("branch_ids must be distinct")
    for b in ids:
        if int(b) != b or not (0 <= b < snapshots.branches):
            raise ValueError(f"invalid branch id {b!r} (have {snapshots.branches} branches)")
    sel = np.abs(snapshots.coeffs[:, [int(b) for b in ids], :]) ** 2
    return sel.sum(axis=1)
