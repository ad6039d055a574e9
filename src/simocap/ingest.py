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

    ``source`` is a path, or a binary or text file object with ``read``
    and ``readline``; bytes are decoded as UTF-8.  Row order is
    immaterial; duplicate or missing cells, ragged rows, non-numeric
    fields, and inconsistent per-bin frequencies are rejected with the
    first offending line number in file order; bytes that are not UTF-8
    are reported first, wherever they are, and a missing cell, which has
    no line, only where no row is at fault, the first in (snapshot,
    branch, bin) order.  An optional inclusive
    [f_min_hz, f_max_hz] filter keeps only the bins inside the band; it
    must keep at least one.  Indices are ASCII decimal integers within
    int64, optionally signed and padded with blanks; reals are decimal or
    exponent literals.  Rows are read in blocks, each one read completed
    to the end of its line and converted by one ``np.loadtxt`` call into
    48-byte records that are held once, then scattered into the
    coefficients: about 65 bytes a row at the peak.
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
    # lists of lines without their endings: one read of _READ_SIZE characters
    # completed to the end of its line, so no part of a line is carried to the
    # next read, and bytes decode block by block, as a "\n" byte never falls
    # inside a UTF-8 character
    line = 1  # the file line that starts the next block
    while text := fh.read(_READ_SIZE):
        text += fh.readline()
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                line += text.count(b"\n", 0, exc.start)
                raise ParseError(f"byte {text[exc.start]:#04x} is not valid UTF-8",
                                 line=line) from None
        while not text.endswith("\n") and (rest := fh.readline()):
            text += rest  # a text file whose lines may also end at a lone "\r"
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        line += len(lines)
        yield [row.rstrip("\r") for row in lines] if "\r" in text else lines


def _parse_blocks(blocks, f_min_hz, f_max_hz) -> SnapshotSet:
    rows = next(blocks, None)
    if rows is None:
        raise ParseError("empty input")
    if rows[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {rows[0]!r}", line=1)
    tables, n_rows, fault = [], 0, None
    for rows in chain([rows[1:]], blocks):  # no block outlives its turn, the first included
        try:
            tables.append(_records(rows))
        except ValueError:  # the read stops at the first faulty row
            i, message = next((i, msg) for i, row in enumerate(rows) if (msg := _row_fault(row)))
            tables.append(_records(rows[:i]))
            fault = ParseError(message, line=n_rows + i + 2)
            break
        n_rows += len(rows)
    del rows
    if not (n_rows or fault):
        raise ParseError("no data rows")
    shape = tuple(max(int(t[i].max(initial=0)) for t in tables) + 1 for i in "sbk")  # no overflow
    if fault or n_rows != math.prod(shape) or (dense := _scatter(tables, shape)) is None:
        table = np.concatenate(tables)  # a fault: the sorting reporter names the first
        del tables
        _check_across_rows(table, after=fault or shape)
    freqs, coeffs = dense
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
    return SnapshotSet(freqs_hz=kept, coeffs=coeffs if keep.all() else coeffs[:, :, keep])


def _scatter(tables, shape):
    # the bin frequencies and coefficients of as many rows as cells, or None unless they
    # fill every cell, so that none repeats, and each row has the frequency its bin ends with
    seen, freqs, coeffs = np.zeros(shape, bool), np.empty(shape[2]), np.empty(shape, complex)
    for t in tables:
        cell = t["s"], t["b"], t["k"]
        seen[cell] = True
        coeffs.real[cell] = t["re"]  # part by part: a complex sum would lose -0.0
        coeffs.imag[cell] = t["im"]
        freqs[t["k"]] = t["freq"]
    sound = seen.all() and all(np.array_equal(t["freq"], freqs[t["k"]]) for t in tables)
    return (freqs, coeffs) if sound else None


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


def _check_across_rows(table, after=None) -> None:
    # the first fault of the rows: the first row in file order that repeats an earlier
    # cell or differs from the first frequency of its bin, on one row the repeat; else
    # after, the row fault that stopped the read, or the shape whose cells the rows,
    # then distinct, do not all fill: the first missing cell has the first rank no row has
    s, b, k, freq = (table[name] for name in ("s", "b", "k", "freq"))
    order = np.lexsort((b, s, k))  # bin-major and stable: a cell's first row sorts first
    same = np.logical_and.reduce([c[1:] == c[:-1] for c in (i[order] for i in (s, b, k))])
    dup = order[1:][same].min(initial=len(s))
    starts = np.flatnonzero(np.diff(k[order], prepend=-1))  # where each bin's rows start
    first = np.repeat(np.minimum.reduceat(order, starts), np.diff(starts, append=len(s)))
    clash = order[freq[order] != freq[first]].min(initial=len(s))  # vs its bin's first row
    if clash < dup:
        raise ParseError(f"inconsistent freq_hz for bin {k[clash]}: {float(freq[clash])!r} vs "
                         f"{float(freq[np.argmax(k == k[clash])])!r}", line=int(clash) + 2)
    if dup < len(s):
        raise ParseError(f"duplicate cell (snapshot={s[dup]}, branch={b[dup]}, bin={k[dup]})",
                         line=int(dup) + 2)
    if isinstance(after, ParseError):
        raise after
    if after is not None:  # distinct rows leave a rank up to their count unmarked
        n_b, n_k = (min(d, len(s) + 1) for d in after[1:])
        cut = lambda i: np.minimum(i, len(s) + 1)  # a digit past the count gives a rank past
        rank = cut(cut(s) * n_b + cut(b)) * n_k + cut(k)  # it, and each product fits in int64
        marked = np.zeros(len(s) + 1, bool)
        marked[rank[rank <= len(s)]] = True
        r = int(marked.argmin())
        raise ParseError(f"missing cell (snapshot={r // (n_b * n_k)}, branch={r // n_k % n_b}, "
                         f"bin={r % n_k})")


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
    # a row is 6 pieces, "s," "b,k,freq," re "," im "\n"; a snapshot sets s, re and im
    pieces = [None, None, None, ",", None, "\n"] * (snapshots.branches * len(bins))
    pieces[1::6] = [f"{b},{bin_}" for b in range(snapshots.branches) for bin_ in bins]
    for s, snapshot in enumerate(snapshots.coeffs):
        pieces[0::6] = [f"{s},"] * (len(pieces) // 6)
        pieces[2::6] = map(repr, snapshot.real.ravel().tolist())
        pieces[4::6] = map(repr, snapshot.imag.ravel().tolist())
        yield "".join(pieces)


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
    try:  # a whole number >= 0, an integral float included
        whole = seed >= 0 and (isinstance(seed, int) or float(seed).is_integer())
    except TypeError:  # not a number, such as the string "3"
        whole = False
    if not whole:
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
