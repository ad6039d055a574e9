"""Water-level power allocation, step by step.

Waterfilling pours a power budget over subchannels whose "floor" heights
are n0/gain: strong subchannels (low floors) collect more power, and
subchannels whose floor sits above the water level get nothing.  Fed the
mean gains this is statistical waterfilling (the transmitter only knows
the fading statistics); fed one snapshot of realized gains it becomes
instantaneous waterfilling.
"""

import numpy as np

from simocap import ParallelChannel, generate_snapshots, simo_gains, waterfill


def show(title, gains, powers, water_level):
    print(f"\n{title}")
    print("  idx    gain    floor n0/g    power")
    for i, (g, p) in enumerate(zip(gains, powers)):
        print(f"  {i:3d}  {g:6.3f}  {1.0 / g:10.3f}  {p:7.4f}")
    active = int(np.count_nonzero(powers > 0))
    print(f"  water level {water_level:.4f}, {active}/{len(gains)} active, "
          f"total {powers.sum():.6f}")


def main():
    # a hand-checkable pair: floors at 1.0 and 0.5, one unit of power
    gains = np.array([1.0, 2.0])
    show("Two subchannels, budget 1", gains, *waterfill(gains, n0=1.0, p_total=1.0))

    # a weak third subchannel whose floor stays above the water line
    gains = np.array([1.0, 4.0, 0.1])
    show("Weak third subchannel stays dry", gains, *waterfill(gains, 1.0, 1.0))

    # scaling gains and noise together changes nothing
    a = waterfill(gains, 1.0, 1.0)[0]
    b = waterfill(gains * 30.0, 30.0, 1.0)[0]
    print("\nScale invariance: powers identical under (gains, n0) -> 30*(gains, n0):",
          bool(np.array_equal(a, b)))

    # statistical vs instantaneous waterfilling on a fading channel
    means = np.array([0.4, 0.9, 1.6, 2.3])
    # two Rayleigh branches (m = 1, L = 2) per subchannel: gain Gamma(2, mean/2)
    channel = ParallelChannel(theta=means / 2.0, shape=2.0, n0=1.0)
    p_total = 2.0
    statistical = waterfill(channel.mean_gains, channel.n0, p_total)[0]
    snapshot = simo_gains(generate_snapshots(channel, 1, seed=4, n_branches=2), range(2))[0]
    instantaneous = waterfill(snapshot, channel.n0, p_total)[0]
    print("\nStatistical (mean gains) vs instantaneous (one snapshot):")
    print("  mean gains:", np.round(channel.mean_gains, 3))
    print("  snapshot:  ", np.round(snapshot, 3))
    print("  statistical powers:  ", np.round(statistical, 4))
    print("  instantaneous powers:", np.round(instantaneous, 4))


if __name__ == "__main__":
    main()
