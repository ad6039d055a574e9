"""End-to-end acceptance checks, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Each criterion is asserted at its stated tolerance; a
failing criterion prints FAIL and surfaces the offending values in the
assertion message.
"""

import contextlib
import csv
import io
import math
import time

import numpy as np
import pytest

from simocap import cli
from simocap.alloc import equal_power, optimal_allocation, waterfill
from simocap.channel import ParallelChannel, build_decay_profile
from simocap.ingest import (
    generate_snapshots,
    parse_channel_csv,
    pooled_mean_gain,
    simo_gains,
    write_channel_csv,
)
from simocap.rates import (
    bound_ratio,
    bound_ratio_expansion,
    exact_rate,
    jensen_upper,
    markov_lower,
    mpe_slope,
    rate_table,
    snr_db_to_power,
)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def _cubic_profile(n_bins=64):
    def profile(L):
        return build_decay_profile(n_bins, 5e9, 6e9, 3.0, 1.0, L, 1.0)

    return profile


def _mpmath_swf_bounds(mpmath, n_bins, L, snr_db):
    """30-digit (c_upper, c_lower_exact, n_active) of the CLI's cubic-decay profile at m = 1.

    Independent of the library: the profile (uniform bins over 5-6 GHz,
    mean gains f^-3 renormalized to unit average, theta = mu/L), the
    waterfilling on the mean gains and both bounds are rebuilt here.  For
    the integer shape L and s = n0/(p*theta) the exact rate has the
    closed form E[log(1 + p*g/n0)] = e^s * sum_{j<L} s^j * Gamma(-j, s).
    """
    with mpmath.workdps(30):
        f_lo, f_hi = mpmath.mpf(5e9), mpmath.mpf(6e9)
        weights = [(f_lo + i * (f_hi - f_lo) / (n_bins - 1)) ** -3 for i in range(n_bins)]
        mean_weight = mpmath.fsum(weights) / n_bins
        mu = [w / mean_weight for w in weights]
        n0 = mpmath.mpf(1)
        p_total = n_bins * n0 * mpmath.mpf(10) ** (mpmath.mpf(snr_db) / 10)
        floors = sorted(n0 / g for g in mu)
        n_active = n_bins
        level = (p_total + mpmath.fsum(floors)) / n_bins
        while level <= floors[n_active - 1]:
            n_active -= 1
            level = (p_total + mpmath.fsum(floors[:n_active])) / n_active
        c_upper = c_lower = mpmath.mpf(0)
        for g in mu:
            p = level - n0 / g
            if p <= 0:
                continue
            c_upper += mpmath.log1p(p * g / n0)
            s = n0 * L / (p * g)
            c_lower += mpmath.exp(s) * mpmath.fsum(
                s ** j * mpmath.gammainc(-j, s) for j in range(L)
            )
        return c_upper, c_lower, n_active


def test_criterion_1_mpe_study_small_gap_at_moderate_diversity(tmp_path):
    mpmath = pytest.importorskip("mpmath")
    with criterion("mpe-study: MPE matches the mpmath oracle, falls with L, obeys the gap certificate"):
        out = tmp_path / "mpe.csv"
        started = time.perf_counter()
        rc = cli.main(
            ["mpe-study", "--n-bins", "64", "--m", "1",
             "--l-values", "1,2,4,8,16", "--snr-db=-10,5", "--output", str(out)]
        )
        elapsed = time.perf_counter() - started
        assert rc == 0
        assert elapsed < 60.0, f"mpe-study took {elapsed:.1f} s"
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10

        # (a) Every figure matches the closed-form oracle to 1e-9 relative,
        # the relative tolerance at which the quadrature stops doubling its
        # nodes.  MPE is 100*(c_upper - c_lower)/c_lower.
        by_snr = {}
        for row in rows:
            L, snr_db = int(row["L"]), float(row["snr_db"])
            c_upper, c_lower, n_active = _mpmath_swf_bounds(mpmath, 64, L, snr_db)
            expected = {
                "c_upper": c_upper,
                "c_lower_exact": c_lower,
                "mpe_percent": 100 * (c_upper - c_lower) / c_lower,
            }
            for column, want in expected.items():
                got = float(row[column])
                assert abs(got / float(want) - 1.0) <= 1e-9, (
                    f"{column} at L={L}, snr={snr_db} dB: {got!r} vs mpmath {float(want)!r}"
                )
            by_snr.setdefault(snr_db, []).append((L, float(row["mpe_percent"])))

            # (c) Gap certificate.  Upper and lower bound are taken at the same
            # waterfilled powers, so the gap is the sum over active bins of
            # the Jensen gap of log(1 + c*g).  phi(x) = log(x) - log(1 + c*x)
            # is concave, so that gap is at most the Jensen gap of log(g),
            # log(m*L) - psi(m*L) ~ 1/(2*m*L) (here m = 1), whatever c is.
            gap = float(row["c_upper"]) - float(row["c_lower_exact"])
            with mpmath.workdps(30):
                certificate = n_active * float(mpmath.log(L) - mpmath.digamma(L))
            assert gap <= certificate, (
                f"gap {gap} at L={L}, snr={snr_db} dB exceeds {certificate}"
            )

        # (b) At each SNR the MPE strictly decreases in L.
        for snr_db, points in by_snr.items():
            mpes = [value for _, value in sorted(points)]
            assert all(b < a for a, b in zip(mpes, mpes[1:])), (
                f"MPE not decreasing in L at {snr_db} dB: {mpes}"
            )


def test_criterion_2_convergence_separation():
    with criterion("waterfilling gap shrinks in L and outpaces a fixed allocation"):
        profile = _cubic_profile()
        orders = [1, 2, 4, 8, 16]
        weights = 1.0 + 0.3 * np.cos(2.0 * np.pi * np.arange(64) / 64.0)
        weights /= weights.sum()

        def fixed_custom(ch, p_total):
            return weights * p_total

        table = rate_table(
            profile, orders, [5.0], ["statistical-waterfill", fixed_custom], markov=False
        )
        mpes, custom = table["mpe_percent"].reshape(len(orders), 2).T
        assert all(b < a for a, b in zip(mpes, mpes[1:])), f"not decreasing: {mpes}"
        assert mpes[3] / mpes[2] < 0.6, f"MPE(8)/MPE(4) = {mpes[3] / mpes[2]:.3f}"

        swf_slope, custom_slope = mpe_slope(orders, mpes), mpe_slope(orders, custom)
        assert swf_slope < custom_slope, (
            f"slopes: waterfilling {swf_slope:.3f} vs fixed {custom_slope:.3f}"
        )


def test_criterion_3_bound_sandwich_randomized():
    with criterion("Markov <= exact <= Jensen on 200 randomized instances"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            subs = [
                (
                    10 ** rng.uniform(-1, 1),
                    float(rng.choice([0.5, 1.0, 2.0, 4.0])) * int(rng.integers(1, 9)),
                )
                for _ in range(n)
            ]
            snr_db = float(rng.uniform(-20.0, 20.0))
            ch = ParallelChannel(*zip(*subs), n0=1.0)
            powers = waterfill(ch.mean_gains, ch.n0, snr_db_to_power(n, 1.0, snr_db))[0]
            lower = markov_lower(ch, powers)
            rate = exact_rate(ch, powers)
            upper = jensen_upper(ch, powers)
            assert rate - lower >= -1e-9, f"markov {lower} > exact {rate}"
            assert upper - rate >= -1e-9, f"exact {rate} > jensen {upper}"


def _mpmath_bound_ratio(mpmath, m, L, beta, alpha):
    with mpmath.workdps(30):
        m, L, beta, alpha = (mpmath.mpf(v) for v in (m, L, beta, alpha))
        q = mpmath.gammainc(m * L, alpha * m * L, mpmath.inf, regularized=True)
        return float(mpmath.log1p(alpha * beta * L) / mpmath.log1p(beta * L) * q)


def test_criterion_4a_ratio_limit_at_large_diversity():
    mpmath = pytest.importorskip("mpmath")
    with criterion("bound ratio: O(1/log L) at fixed alpha, at least 0.98 at L = 1e5 with alpha_L"):
        # (a) Fixed alpha = 0.5 (m=1, beta=1): the ratio equals its 30-digit
        # mpmath value to 1e-12 and increases in L.  Writing
        # x = (1-alpha)/(alpha*(1+beta*L)) and P = 1 - Q(mL, alpha*mL),
        #   (1 - ratio)*log(1+beta*L) + log(alpha) = -log(1+x) + P*log(1+alpha*beta*L),
        # which lies in [-x, chernoff*log(1+alpha*beta*L)] with the Chernoff
        # bound P <= (alpha*e^(1-alpha))^(mL).  So 1 - ratio ~ -log(alpha)/log(L):
        # a fixed alpha converges at O(1/log L), reaching 0.98 only near L ~ 1e16.
        alpha = 0.5
        orders = [10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000]
        ratios = []
        for L in orders:
            value = bound_ratio(m=1.0, L=L, beta=1.0, alpha=alpha)
            oracle = _mpmath_bound_ratio(mpmath, 1, L, 1, alpha)
            assert abs(value - oracle) <= 1e-12 * oracle, f"L={L}: {value!r} vs mpmath {oracle!r}"
            log_den = math.log1p(L)
            deviation = (1.0 - value) * log_den + math.log(alpha)
            x = (1.0 - alpha) / (alpha * (1.0 + L))
            chernoff = (alpha * math.exp(1.0 - alpha)) ** L * math.log1p(alpha * L)
            slack = 1e-12 * log_den  # the ratio's own tolerance, carried through
            assert -x - slack <= deviation <= chernoff + slack, (
                f"L={L}: (1 - ratio)*log(1+L) = {deviation - math.log(alpha):.9f}, "
                f"outside -log(alpha) + [{-x:.3e}, {chernoff:.3e}]"
            )
            ratios.append(value)
        assert all(b > a for a, b in zip(ratios, ratios[1:])), f"not increasing: {ratios}"

        # (b) With the L-dependent parameter alpha_L = 1 - 3/sqrt(L) the
        # Markov threshold alpha_L*L sits 3 standard deviations below the
        # mean of Gamma(L, 1), so Q(L, alpha_L*L) ~ Phi(3) = 0.99865, and the
        # log factor is 1 + log(alpha_L)/log(L) + ... ~ 0.9992.
        L = 100_000
        alpha_l = 1.0 - 3.0 / math.sqrt(L)
        value = bound_ratio(m=1.0, L=L, beta=1.0, alpha=alpha_l)
        oracle = _mpmath_bound_ratio(mpmath, 1, L, 1, alpha_l)
        assert abs(value - oracle) <= 1e-12 * oracle, f"{value!r} vs mpmath {oracle!r}"
        assert value >= 0.98, f"bound ratio at L=1e5 with alpha_L is {value:.6f}"

        # The default max a-rule maximizes over a family that contains
        # a = log(1 + alpha_L*beta*L), so on the same subchannel (beta =
        # p*theta*m/n0 = 1) its bound quotient is at least the alpha_L ratio.
        ch = ParallelChannel(theta=[1.0], shape=1.0 * L, n0=1.0)
        powers = np.array([1.0])
        quotient = markov_lower(ch, powers) / jensen_upper(ch, powers)
        assert quotient >= value, f"max-rule quotient {quotient:.6f} below alpha_L ratio {value:.6f}"


def test_criterion_4b_ratio_matches_expansion():
    with criterion("ratio expansion within 0.02 of the exact ratio for L >= 1e4"):
        for L in (10_000, 30_000, 100_000):
            exact = bound_ratio(m=1.0, L=L, beta=1.0, alpha=0.5)
            log_term, gamma_term = bound_ratio_expansion(1.0, float(L), 0.5)
            assert abs(exact - log_term * gamma_term) <= 0.02, (
                f"L={L}: exact {exact:.6f} vs expansion {log_term * gamma_term:.6f}"
            )


def test_criterion_4c_ratio_identity_with_bound_quotient():
    with criterion("single-subchannel ratio identity to 1e-12 on 20 random draws"):
        rng = np.random.default_rng(77)
        for _ in range(20):
            m = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            L = int(rng.integers(1, 9))
            theta = 10 ** rng.uniform(-1, 1)
            n0 = 10 ** rng.uniform(-0.5, 0.5)
            p = 10 ** rng.uniform(-1, 1)
            alpha = float(rng.uniform(0.1, 0.9))
            ch = ParallelChannel([theta], m * L, n0=n0)
            powers = np.array([p])
            quotient = markov_lower(ch, powers, alpha=alpha) / jensen_upper(ch, powers)
            direct = bound_ratio(m=m, L=L, beta=p * theta * m / n0, alpha=alpha)
            assert abs(quotient - direct) <= 1e-12


def test_criterion_5_quadrature_against_monte_carlo():
    mpmath = pytest.importorskip("mpmath")
    with criterion("quadrature rate within 3 SE of 1e6-draw Monte Carlo, 20 draws"):
        rng = np.random.default_rng(555)
        for _ in range(20):
            ch = ParallelChannel(
                theta=[10 ** rng.uniform(-1, 1)],
                shape=float(rng.choice([0.5, 1.0, 2.0, 4.0])) * int(rng.integers(1, 9)),
                n0=1.0,
            )
            p = 10 ** rng.uniform(-1, 1)
            n0 = 1.0
            value = exact_rate(ch, [p])
            draws = np.log1p(p * rng.gamma(ch.shape[0], ch.theta[0], 1_000_000) / n0)
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(value - draws.mean()) <= 3.0 * se, (
                f"quad {value} vs MC {draws.mean()} (se {se:.2e})"
            )
        closed = math.e * float(mpmath.e1(1.0))
        unit_channel = ParallelChannel(theta=[1.0], shape=1.0, n0=1.0)
        unit = exact_rate(unit_channel, [1.0])
        assert abs(unit - 0.5963474) <= 1e-6
        assert math.isclose(unit, closed, rel_tol=1e-9)


def test_criterion_6_waterfilling_exactness():
    with criterion("waterfilling: hand cases to 1e-12, KKT and optimality on 1000 instances"):
        two, two_level = waterfill([1.0, 2.0], 1.0, 1.0)
        assert np.max(np.abs(two - [0.25, 0.75])) <= 1e-12
        assert abs(two_level - 1.25) <= 1e-12
        three, three_level = waterfill([1.0, 4.0, 0.1], 1.0, 1.0)
        assert np.max(np.abs(three - [0.125, 0.875, 0.0])) <= 1e-12
        assert abs(three_level - 1.125) <= 1e-12

        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            gains = 10 ** rng.uniform(-1, 1, size=n)
            n0 = 10 ** rng.uniform(-0.5, 0.5)
            p_total = 10 ** rng.uniform(-1, 1)
            powers, nu = waterfill(gains, n0, p_total)
            assert abs(powers.sum() - p_total) <= 1e-12 * p_total
            thresholds = n0 / gains
            for p, t in zip(powers, thresholds):
                if p > 0.0:
                    assert abs(p - (nu - t)) <= 1e-12 * max(1.0, nu)
                else:
                    assert nu <= t * (1.0 + 1e-12)
            objective = float(np.log1p(powers * gains / n0).sum())
            candidates = rng.dirichlet(np.ones(n), size=1000) * p_total
            best_random = float(np.log1p(candidates * gains / n0).sum(axis=1).max())
            assert objective >= best_random - 1e-12


def test_criterion_7_exact_optimum_grid_search_and_dominance():
    with criterion("distribution-aware optimum matches grid search and dominates"):
        rng = np.random.default_rng(99)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        for _ in range(20):
            subs = [
                (
                    10 ** rng.uniform(-1, 0.5),
                    float(rng.choice([0.5, 1.0, 2.0])) * int(rng.integers(1, 5)),
                )
                for _ in range(2)
            ]
            ch = ParallelChannel(*zip(*subs), n0=1.0)
            opt = optimal_allocation(ch, 1.0)

            best_p1, best_val = 0.0, -math.inf
            for p1 in grid:
                val = exact_rate(ch, [p1, 1.0 - p1])
                if val > best_val:
                    best_p1, best_val = float(p1), val
            assert abs(opt[0] - best_p1) <= 5e-3, f"optimum {opt} vs grid {best_p1}"
            assert abs(opt[1] - (1.0 - best_p1)) <= 5e-3

            opt_rate = exact_rate(ch, opt)
            swf_rate = exact_rate(ch, waterfill(ch.mean_gains, ch.n0, 1.0)[0])
            eq_rate = exact_rate(ch, equal_power(ch.n, 1.0))
            assert opt_rate >= swf_rate - 1e-9
            assert opt_rate >= eq_rate - 1e-9


MALFORMED_FIXTURES = [
    "snapshot,branch,bin,freq,re,im\n0,0,0,5e9,1,0\n",              # wrong header
    "snapshot,branch,bin,freq_hz,re,im\n0,0,0,5e9,1\n",              # ragged row
    "snapshot,branch,bin,freq_hz,re,im\n0,0,zero,5e9,1,0\n",         # non-numeric index
    "snapshot,branch,bin,freq_hz,re,im\n0,0,0,5e9,one,0\n",          # non-numeric value
    "snapshot,branch,bin,freq_hz,re,im\n0,0,0,5e9,1,0\n0,0,0,5e9,1,0\n",  # duplicate
    "snapshot,branch,bin,freq_hz,re,im\n0,0,0,5e9,1,0\n0,0,1,6e9,1,0\n1,0,0,5e9,1,0\n",  # missing
    "snapshot,branch,bin,freq_hz,re,im\n0,0,0,5e9,1,0\n1,0,0,5.5e9,1,0\n",  # freq mismatch
    "snapshot,branch,bin,freq_hz,re,im\n0,0,0,6e9,1,0\n0,0,1,5e9,1,0\n",   # not increasing
    "snapshot,branch,bin,freq_hz,re,im\n\n0,0,0,5e9,1,0\n",          # blank line
    "",                                                               # empty file
]


def test_criterion_8_ingestion_pipeline(tmp_path):
    with criterion("ingestion pipeline: recovery within 4 sigma, unit pooled mean, fixtures rejected"):
        ch = build_decay_profile(4, 5e9, 6e9, 3.0, 1.0, 4, 1.0)
        snapshots = generate_snapshots(ch, 10_000, seed=314, n_branches=4)
        buf = io.StringIO()
        write_channel_csv(snapshots, buf)
        buf.seek(0)
        parsed = parse_channel_csv(buf)
        pooled = pooled_mean_gain(parsed)
        gains = simo_gains(parsed, range(4)) / pooled
        # unit pooled mean: the four branches together average to 4
        assert abs(gains.mean() / 4.0 - 1.0) <= 1e-12
        observed = gains.mean(axis=0)
        mu = ch.mean_gains
        expected = mu * 4.0 / mu.mean()
        sigma = gains.std(axis=0, ddof=1) / math.sqrt(len(gains))
        assert np.all(np.abs(observed - expected) <= 4.0 * sigma + 1e-9), (
            f"means {observed} vs expected {expected}"
        )

        for i, body in enumerate(MALFORMED_FIXTURES):
            bad = tmp_path / f"bad_{i}.csv"
            bad.write_text(body)
            rc = cli.main(["ingest", "--input", str(bad)])
            assert rc == 2, f"fixture {i} returned exit code {rc}"
