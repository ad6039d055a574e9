"""Bracketing the ergodic capacity of a frequency-selective channel.

With only statistical channel knowledge at the transmitter, the ergodic
capacity is pinned between a Jensen upper bound (rates at the mean gains,
waterfilled) and two lower bounds: the exact achievable rate of the
chosen allocation, and a cheaper Markov-inequality bound with a free
parameter per subchannel.  The maximum percent error (MPE) of the bound
pair certifies how far the allocation can possibly be from optimal.
"""

from simocap import (
    build_decay_profile,
    equal_power,
    markov_lower,
    rate_table,
    snr_db_to_power,
)


def main():
    n_bins = 32

    def profile(L):
        return build_decay_profile(
            n_bins, 5e9, 6e9, decay_exponent=3.0, m=1.0, L=L, n0=1.0
        )

    channel = profile(4)
    print(f"{n_bins} bins over 5-6 GHz, mean gain falling like f^-3, "
          f"spread {channel.mean_gains.min():.3f}..{channel.mean_gains.max():.3f} (avg 1)")

    # rates are normalized by the AWGN reference, which is the upper bound
    table = rate_table(
        profile, [4], (-15.0, -5.0, 5.0, 15.0), ("statistical-waterfill", "equal"), markov=False
    )
    print("\n   snr_db  strategy              norm.upper  norm.lower  mpe%")
    columns = ("snr_db", "strategy", "c_upper", "c_lower_exact", "mpe_percent")
    for snr_db, strategy, c_upper, c_lower, mpe_percent in zip(*(table[c] for c in columns)):
        print(f"  {snr_db:7.1f}  {strategy:<20s}  {c_upper / c_upper:10.4f}"
              f"  {c_lower / c_upper:10.4f}  {mpe_percent:6.2f}")
    print("\nStatistical waterfilling pulls ahead of balanced loading at low SNR,")
    print("where only the strongest subchannels deserve power.")

    # the Markov bound's free parameter: closed-form rule vs maximization
    powers = equal_power(n_bins, snr_db_to_power(n_bins, channel.n0, 0.0))
    print("\nMarkov lower bound at 0 dB under different parameter rules:")
    for alpha in (0.3, 0.6, 0.9):
        print(f"  alpha = {alpha:.1f}: {markov_lower(channel, powers, alpha=alpha):8.4f} nats")
    print(f"  maximized per subchannel: {markov_lower(channel, powers):8.4f} nats")


if __name__ == "__main__":
    main()
