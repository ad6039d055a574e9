"""Capacity bounds and power loading for parallel channels of SIMO fading subchannels.

The library models a parallel channel whose subchannels each combine L
independent Nakagami-m diversity branches, so each power gain is
Gamma(m*L, theta).  A ``ParallelChannel`` holds these laws as arrays
``theta`` and ``shape`` next to one noise level.  Each allocator takes
the total power budget it splits, and an allocation is a plain array of
powers, one per subchannel.  The library provides:

* exact water-level power allocation (statistical or instantaneous) and
  the exact distribution-aware optimum over the power simplex,
* Jensen upper and Markov lower bounds on the ergodic capacity, the
  achievable rate of any allocation, and the maximum-percent-error gap
  certificate between them,
* one table of bounds, rates and gaps over diversity orders, SNRs and
  strategies, and the single-subchannel lower/upper bound ratio with its
  large-diversity expansion,
* ingestion of measured frequency-response data in a flat CSV
  interchange format, with per-bin gamma moment fits of the normalized
  gains, plus a matching synthetic generator.

Rates are in nats unless explicitly converted to bits.
"""

__version__ = "0.1.0"

from .alloc import equal_power, optimal_allocation, waterfill
from .channel import ParallelChannel, build_decay_profile, fit_gamma_moments
from .ingest import (
    ParseError,
    SnapshotSet,
    generate_snapshots,
    parse_channel_csv,
    pooled_mean_gain,
    simo_gains,
    write_channel_csv,
)
from .rates import (
    MetricUndefinedError,
    bound_ratio,
    bound_ratio_expansion,
    empirical_rate,
    exact_rate,
    jensen_upper,
    markov_lower,
    mpe,
    mpe_slope,
    rate_table,
    snr_db_to_power,
)
from .specfun import NumericError, reg_gamma_q

# the public API is every class and function imported above, in import order
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if getattr(value, "__module__", "").startswith(__name__ + ".")
]
