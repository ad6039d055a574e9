"""Measured channel data: a flat CSV interchange format and the SIMO chain.

The interchange format is one row per complex frequency-response
coefficient:

    snapshot,branch,bin,freq_hz,re,im

with 0-based integer indices in the first three columns, decimal reals in
the rest, LF or CRLF line endings, and exactly one row for every
(snapshot, branch, bin) cell.  Processing follows
parse -> normalize_unit_mean -> simo_gains -> empirical_means: the
normalization applies one scalar to all coefficients so the pooled mean
of |h|^2 over snapshots, branches and bins is one (per-branch
normalization would distort SIMO combining), and SIMO gains sum |h|^2
over the selected branches, turning frequency bins into parallel
subchannels.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import GainMatrix, ParallelChannel

__all__ = [
    "CSV_HEADER",
    "ParseError",
    "NormalizationError",
    "SnapshotSet",
    "parse_channel_csv",
    "write_channel_csv",
    "generate_snapshots",
    "pooled_mean_gain",
    "normalize_unit_mean",
    "simo_gains",
    "empirical_means",
]

CSV_HEADER = "snapshot,branch,bin,freq_hz,re,im"


class ParseError(ValueError):
    """Malformed channel CSV; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class NormalizationError(ValueError):
    """The snapshot set cannot be normalized."""


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
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0.0):
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


def _read_text(source) -> str:
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    with open(source, "rb") as fh:
        return fh.read().decode("utf-8")


def parse_channel_csv(
    source, f_min_hz: float | None = None, f_max_hz: float | None = None
) -> SnapshotSet:
    """Parse the channel CSV format into a dense SnapshotSet.

    ``source`` is a path or a readable file object.  Row order is
    immaterial; duplicate or missing cells, ragged rows, non-numeric
    fields, and inconsistent per-bin frequencies are rejected with the
    offending line number.  An optional inclusive [f_min_hz, f_max_hz]
    filter keeps only the bins inside the band; it must keep at least one.
    """
    text = _read_text(source)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input")
    header = lines[0].rstrip("\r")
    if header != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {header!r}", line=1)

    cells: dict[tuple[int, int, int], complex] = {}
    bin_freq: dict[int, float] = {}
    max_s = max_b = max_k = -1
    for lineno, raw in enumerate(lines[1:], start=2):
        row = raw.rstrip("\r")
        if row == "":
            raise ParseError("blank line", line=lineno)
        parts = row.split(",")
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}", line=lineno)
        try:
            s, b, k = int(parts[0]), int(parts[1]), int(parts[2])
            freq, re_part, im_part = float(parts[3]), float(parts[4]), float(parts[5])
        except ValueError:
            raise ParseError(f"non-numeric field in {row!r}", line=lineno) from None
        if s < 0 or b < 0 or k < 0:
            raise ParseError("indices must be 0-based nonnegative integers", line=lineno)
        if not (math.isfinite(freq) and math.isfinite(re_part) and math.isfinite(im_part)):
            raise ParseError("non-finite numeric field", line=lineno)
        key = (s, b, k)
        if key in cells:
            raise ParseError(f"duplicate cell (snapshot={s}, branch={b}, bin={k})", line=lineno)
        if k in bin_freq:
            if bin_freq[k] != freq:
                raise ParseError(
                    f"inconsistent freq_hz for bin {k}: {freq!r} vs {bin_freq[k]!r}",
                    line=lineno,
                )
        else:
            bin_freq[k] = freq
        cells[key] = complex(re_part, im_part)
        max_s = max(max_s, s)
        max_b = max(max_b, b)
        max_k = max(max_k, k)

    if not cells:
        raise ParseError("no data rows")
    n_s, n_b, n_k = max_s + 1, max_b + 1, max_k + 1
    if len(cells) != n_s * n_b * n_k:
        for s in range(n_s):
            for b in range(n_b):
                for k in range(n_k):
                    if (s, b, k) not in cells:
                        raise ParseError(f"missing cell (snapshot={s}, branch={b}, bin={k})")

    keep = [
        k
        for k in range(n_k)
        if (f_min_hz is None or bin_freq[k] >= f_min_hz)
        and (f_max_hz is None or bin_freq[k] <= f_max_hz)
    ]
    if not keep:
        raise ParseError("band filter selected no bins")
    freqs = np.array([bin_freq[k] for k in keep])
    if freqs.size > 1 and not np.all(np.diff(freqs) > 0.0):
        raise ParseError("freq_hz must be strictly increasing across bins")

    coeffs = np.empty((n_s, n_b, len(keep)), dtype=complex)
    for j, k in enumerate(keep):
        for s in range(n_s):
            for b in range(n_b):
                coeffs[s, b, j] = cells[(s, b, k)]
    return SnapshotSet(freqs_hz=freqs, coeffs=coeffs)


def write_channel_csv(snapshots: SnapshotSet, dest) -> None:
    """Serialize a SnapshotSet to the channel CSV format (LF endings).

    Floats are written with shortest round-trip precision, so
    write -> parse reproduces the set exactly.
    """
    rows = [CSV_HEADER]
    for s in range(snapshots.snapshots):
        for b in range(snapshots.branches):
            for k in range(snapshots.n_bins):
                h = snapshots.coeffs[s, b, k]
                rows.append(
                    f"{s},{b},{k},{float(snapshots.freqs_hz[k])!r},"
                    f"{float(h.real)!r},{float(h.imag)!r}"
                )
    text = "\n".join(rows) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        _write_atomic(dest, text)


def _write_atomic(path, text: str) -> None:
    # a temporary file next to path replaces it only once fully written,
    # so a failed write leaves any previous path as it was
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def generate_snapshots(
    channel: ParallelChannel,
    n_snapshots: int,
    seed: int,
    n_branches: int | None = None,
) -> SnapshotSet:
    """Synthesize format-conformant snapshots from a parallel channel.

    Each branch coefficient has an independent Gamma(m_n, theta_n) power
    gain and a uniform phase, so summing |h|^2 over the channel's L
    branches reproduces the Gamma(m_n*L, theta_n) subchannel gains.
    Output is bit-exact reproducible per seed.  Bin frequencies come from
    the channel's ``freqs_hz`` (an increasing index grid if it has none).
    """
    if n_snapshots < 1 or int(n_snapshots) != n_snapshots:
        raise ValueError("n_snapshots must be a positive integer")
    if n_branches is None:
        if np.any(channel.L != channel.L[0]):
            raise ValueError("give n_branches explicitly when subchannel L varies")
        n_branches = int(channel.L[0])
    if n_branches < 1:
        raise ValueError("n_branches must be a positive integer")

    if channel.freqs_hz is None:
        freqs = np.arange(1.0, channel.n + 1.0) * 1e6
    else:
        freqs = channel.freqs_hz

    rng = np.random.default_rng(int(seed))
    shape = (int(n_snapshots), int(n_branches))
    coeffs = np.empty(shape + (channel.n,), dtype=complex)
    for n in range(channel.n):
        power = rng.gamma(shape=channel.m[n], scale=channel.theta[n], size=shape)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        coeffs[:, :, n] = np.sqrt(power) * np.exp(1j * phase)
    return SnapshotSet(freqs_hz=freqs, coeffs=coeffs)


def pooled_mean_gain(snapshots: SnapshotSet) -> float:
    """Mean of |h|^2 pooled over snapshots, branches, and bins."""
    return float(np.mean(np.abs(snapshots.coeffs) ** 2))


def normalize_unit_mean(snapshots: SnapshotSet) -> SnapshotSet:
    """Scale all coefficients by one real constant so the pooled mean gain is 1."""
    pooled = pooled_mean_gain(snapshots)
    if pooled <= 0.0:
        raise NormalizationError("all coefficients are zero; cannot normalize")
    scale = 1.0 / math.sqrt(pooled)
    return SnapshotSet(freqs_hz=snapshots.freqs_hz, coeffs=snapshots.coeffs * scale)


def simo_gains(snapshots: SnapshotSet, branch_ids) -> GainMatrix:
    """Combined SIMO gains: sum of |h|^2 over the selected branches, per (snapshot, bin)."""
    ids = list(branch_ids)
    if not ids:
        raise ValueError("branch_ids must be non-empty")
    if len(set(ids)) != len(ids):
        raise ValueError("branch_ids must be distinct")
    for b in ids:
        if int(b) != b or not (0 <= b < snapshots.branches):
            raise ValueError(f"invalid branch id {b!r} (have {snapshots.branches} branches)")
    sel = np.abs(snapshots.coeffs[:, [int(b) for b in ids], :]) ** 2
    return GainMatrix(values=sel.sum(axis=1), seed=None)


def empirical_means(gains: GainMatrix) -> np.ndarray:
    """Per-subchannel mean gain averaged over snapshots."""
    return gains.values.mean(axis=0)
