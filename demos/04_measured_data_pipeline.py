"""From raw frequency-response recordings to per-bin fading statistics.

Measured multi-antenna channel data enters as one complex coefficient per
(snapshot, branch, frequency bin).  The processing chain is:

  parse CSV -> sum |h|^2 over branches (SIMO combining) -> divide by
  the pooled mean |h|^2 (unit-mean normalization) -> average over
  snapshots and moment-fit a gamma law, every bin at once -> capacity
  bounds of the fitted channel.

Here the recording is synthesized from a known channel so every recovered
quantity can be compared against the truth.  The same chain runs from the
command line via `simocap gen-synthetic` and `simocap ingest`.
"""

import io

import numpy as np

from simocap import (
    ParallelChannel,
    build_decay_profile,
    exact_rate,
    fit_gamma_moments,
    generate_snapshots,
    jensen_upper,
    markov_lower,
    parse_channel_csv,
    pooled_mean_gain,
    simo_gains,
    snr_db_to_power,
    waterfill,
    write_channel_csv,
)


def print_rates(label, channel, p_total):
    # Jensen upper bound, exact rate and Markov lower bound at statistical waterfilling
    swf = waterfill(channel.mean_gains, channel.n0, p_total)[0]
    rates = jensen_upper(channel, swf), exact_rate(channel, swf), markov_lower(channel, swf)
    print(f"  {label:<16}" + "".join(f"{r:12.4f}" for r in rates))


def main():
    branches = 4
    truth = build_decay_profile(
        6, 5e9, 6e9, decay_exponent=3.0, m=1.0, L=branches, n0=1.0
    )
    snapshots = generate_snapshots(truth, n_snapshots=4000, seed=2, n_branches=branches)
    print(f"synthesized {snapshots.snapshots} snapshots x {snapshots.branches} branches "
          f"x {snapshots.n_bins} bins from a known f^-3 channel")

    # serialize and re-parse: the CSV interchange format is lossless
    buffer = io.StringIO()
    write_channel_csv(snapshots, buffer)
    buffer.seek(0)
    parsed = parse_channel_csv(buffer)
    print("CSV round trip exact:", bool(np.array_equal(parsed.coeffs, snapshots.coeffs)))

    # one scalar normalizes every coefficient: the pooled mean of |h|^2 becomes 1
    pooled = pooled_mean_gain(parsed)
    print(f"pooled mean gain before normalization: {pooled:.4f}")
    gains = simo_gains(parsed, branch_ids=range(branches)) / pooled
    means = gains.mean(axis=0)
    # after per-branch normalization the expected combined mean is
    # mu_n * L / average(mu)
    expected = truth.mean_gains * branches / truth.mean_gains.mean()

    # one moment fit reduces every bin's column of gains at once
    shapes, scales = fit_gamma_moments(gains)
    print("\n  bin   freq_GHz   mean gain   expected   fit shape (true 4.0)")
    for j in range(parsed.n_bins):
        print(f"  {j:3d}   {parsed.freqs_hz[j] / 1e9:8.3f}   {means[j]:9.3f}"
              f"   {expected[j]:8.3f}   {shapes[j]:9.3f}")

    # a fitted (shape, scale) per bin is a channel entry; next to it, the
    # true law of the normalized gains, Gamma(m*L, expected/(m*L)), at 5 dB
    p_total = snr_db_to_power(parsed.n_bins, 1.0, 5.0)
    fitted = ParallelChannel(theta=scales, shape=shapes, n0=1.0)
    true = ParallelChannel(expected / truth.shape, truth.shape, n0=1.0)
    print(f"\n  {'at 5 dB, nats':<16}" + "".join(f"{h:>12}" for h in ("Jensen", "exact", "Markov")))
    print_rates("fitted channel", fitted, p_total)
    print_rates("true channel", true, p_total)
    print("\nthe moment fits recover the combined shape m*L per bin, so the")
    print("capacity machinery can be driven directly from measured data.")


if __name__ == "__main__":
    main()
