"""How diversity closes the gap between the capacity bounds.

As the number of diversity branches L grows, each subchannel's gain
concentrates around its mean, every reasonable power allocation becomes
near-optimal, and the upper/lower capacity bounds pinch together.  Two
diagnostics quantify this:

* the MPE-versus-L curve, whose log-log slope is close to -1 for
  statistical waterfilling but flattens for an allocation held fixed
  while L grows (its loss does not vanish);
* the single-subchannel ratio of the Markov lower to the Jensen upper
  bound, which climbs to 1 like 1 + log(alpha)/log(L).
"""

import numpy as np

from simocap import (
    bound_ratio,
    bound_ratio_expansion,
    build_decay_profile,
    mpe_slope,
    rate_table,
)


def profile(L):
    return build_decay_profile(64, 5e9, 6e9, 3.0, 1.0, L, 1.0)


def main():
    orders = [1, 2, 4, 8, 16, 32]
    weights = 1.0 + 0.3 * np.cos(2.0 * np.pi * np.arange(64) / 64.0)
    weights /= weights.sum()
    table = rate_table(
        profile,
        orders,
        [5.0],
        ["statistical-waterfill", lambda ch, p_total: weights * p_total],
        markov=False,
    )
    # one row per (L, strategy): waterfilling's MPEs, then the fixed allocation's
    swf, custom = table["mpe_percent"].reshape(len(orders), 2).T

    print("Bound gap vs diversity order at 5 dB (f^-3 profile, 64 bins):")
    print("    L   mpe% waterfilling   mpe% fixed allocation")
    for L, a, b in zip(orders, swf, custom):
        print(f"  {L:3d}   {a:18.3f}   {b:21.3f}")
    print(f"  log-log slopes: waterfilling {mpe_slope(orders, swf):.3f}, "
          f"fixed {mpe_slope(orders, custom):.3f}")
    print("  waterfilling's gap decays faster, so moderate diversity already")
    print("  certifies it as nearly optimal.")

    print("\nLower/upper bound ratio for one subchannel (m=1, beta=1, alpha=0.5):")
    print("        L      exact ratio    leading-order expansion")
    for L in (10, 100, 1000, 10_000, 100_000):
        exact = bound_ratio(m=1.0, L=L, beta=1.0, alpha=0.5)
        log_term, gamma_term = bound_ratio_expansion(1.0, float(L), 0.5)
        print(f"  {L:7d}   {exact:12.6f}   {log_term * gamma_term:12.6f}")
    print("  the ratio approaches 1, but only logarithmically in L.")


if __name__ == "__main__":
    main()
