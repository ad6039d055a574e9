"""Checks of the simocap package as users install it, with numpy its only dependency.

Run it from a scratch directory, where it writes its files, with the package
importable: installed, or from a checkout with PYTHONPATH=src.

    PYTHONWARNINGS=error::RuntimeWarning,error::UserWarning python tests/installed_checks.py

It needs the standard library and numpy only.  Each check calls the library in
this process or runs ``python -m simocap`` in a subprocess, and prints what it
saw; the first check that fails raises AssertionError.
"""

import pathlib
import subprocess
import sys

import numpy as np

import simocap as sc


def _cli(*args, refused=()):
    # run the CLI: it exits 0, or, given the texts its refusal must hold, 2 with them on stderr
    done = subprocess.run([sys.executable, "-m", "simocap", *args], capture_output=True, text=True)
    want = 2 if refused else 0
    assert done.returncode == want and all(text in done.stderr for text in refused), done
    print(done.stderr if refused else " ".join(args))


def _wide_channel():
    # 12 shapes spanning [0.1, 1e5], unsorted, so every row of the rule but the longest is padded
    k = np.geomspace(0.1, 1e5, 12)[[5, 0, 11, 3, 8, 1, 10, 6, 2, 9, 4, 7]]
    return sc.ParallelChannel(theta=np.geomspace(0.1, 10.0, 12) / k, shape=k, n0=1.0)


def check_every_command():
    _cli("--version")
    _cli("bounds-sweep", "--n-bins", "8", "--snr-db=0",
         "--strategies", "statistical-waterfill,equal,optimal", "--output", "sweep.csv")
    _cli("bounds-sweep", "--n-bins", "8", "--snr-db=0", "--a-rule", "alpha=0.5",
         "--output", "sweep-alpha.csv")
    _cli("mpe-study", "--n-bins", "8", "--output", "mpe.csv")
    _cli("gen-synthetic", "--n-bins", "8", "--n-snapshots", "4", "--output", "channel.csv")
    _cli("ingest", "--input", "channel.csv", "--output", "stats.json")
    # the rate table's own refusals, before any output or sidecar is written
    _cli("bounds-sweep", "--n-bins", "8", "--strategies", "foo", "--output", "refused.csv",
         refused=["error: unknown strategy 'foo'\n"])
    pathlib.Path("no-snr.json").write_text('{"snr_db_values": []}')
    _cli("bounds-sweep", "--config", "no-snr.json", "--output", "refused.csv",
         refused=["error: snr_db_values must be non-empty\n"])
    assert not list(pathlib.Path().glob("refused.csv*"))


def check_ingest_faults():
    # an index that Python's int() reads as 10 is a fault of the format, at its own line
    pathlib.Path("underscore.csv").write_text(
        "snapshot,branch,bin,freq_hz,re,im\n1_0,0,0,5e9,1,0\n")
    _cli("ingest", "--input", "underscore.csv", "--output", "bad.json", refused=["line 2"])
    # as many rows as cells, one cell repeated: the dense check hands it to the reporter,
    # at its second line
    pathlib.Path("repeat.csv").write_text(
        "snapshot,branch,bin,freq_hz,re,im\n0,0,0,5e9,1,0\n0,0,2,7e9,1,0\n0,0,0,5e9,2,0\n")
    _cli("ingest", "--input", "repeat.csv", "--output", "bad.json",
         refused=["line 4: duplicate cell (snapshot=0, branch=0, bin=0)"])


def check_padded_rule():
    ch = _wide_channel()
    # one solve on the channel
    p = sc.optimal_allocation(ch, 12.0)
    r = sc.exact_rate(ch, p)
    assert abs(p.sum() / 12.0 - 1.0) <= 1e-12 and 0.0 < r < sc.jensen_upper(ch, p), r
    print(r)
    # one Markov call on a 3-row stack over that channel: each row is its own 1-D call
    P = np.array([np.ones(12), np.geomspace(1e-3, 1e3, 12), np.r_[np.zeros(6), np.full(6, 2.0)]])
    b = sc.markov_lower(ch, P)
    assert b.shape == (3,) and all(b[i] == sc.markov_lower(ch, P[i]) for i in range(3)), b
    print(b)
    # exact_rate and jensen_upper on that 3-row stack: each row is its own 1-D call too
    r = {f.__name__: f(ch, P) for f in (sc.exact_rate, sc.jensen_upper)}
    assert all(v.shape == (3,) and v.tolist() == [getattr(sc, name)(ch, p) for p in P]
               for name, v in r.items()), r
    print(r)
    # the maximised Markov bound at tiny and huge power: positive, and at least the
    # paper's alpha rules
    P = np.array([np.full(12, 1e-12), np.full(12, 1e25)])
    b = sc.markov_lower(ch, P)
    r = [sc.markov_lower(ch, P, alpha=a) for a in (0.1, 0.5, 0.9)]
    assert all(b > 0.0) and all((b >= v).all() for v in r), (b, r)
    print(b, r)


def check_load_range():
    # the alpha rule at the top of the load range: finite, and below the Jensen bound
    ch = sc.ParallelChannel([10.0], 0.1, n0=1.0)
    b, u = sc.markov_lower(ch, [1e308], alpha=0.5), sc.jensen_upper(ch, [1e308])
    assert 0.0 < b <= u < float("inf"), (b, u)
    print(b, u)
    # at -3080 dB every load is about 1e-308, below the Markov search's range: exit 2,
    # naming a bin
    _cli("bounds-sweep", "--n-bins", "8", "--snr-db=-3080", "--output", "tiny.csv",
         refused=[" in bin "])
    # beside an accepted SNR in the same stack, the refusal names the SNR it comes from
    _cli("bounds-sweep", "--n-bins", "8", "--snr-db=0,-3080", "--output", "tiny.csv",
         refused=["-3080"])
    # at 3070 dB the loads are about 1e307, where l*e^u overflows at the exact rate's top
    # nodes: finite rates
    _cli("bounds-sweep", "--n-bins", "8", "--m", "0.5", "--l-values", "1", "--snr-db=3070",
         "--output", "top.csv")
    # there the optimal solver's curvature, about 1/p**2, is taken in scaled units: it
    # meets its KKT stop
    _cli("bounds-sweep", "--n-bins", "8", "--m", "0.5", "--l-values", "1", "--snr-db=3070",
         "--strategies", "optimal", "--output", "top-optimal.csv")


def check_nodes_past_dbl_max():
    # the top quadrature node of a shape-0.1 law is about 64 times its scale, past DBL_MAX
    # here; at the finite load 1e-10 * 1e306 the rates read the unit-mean nodes and the
    # load alone, so they are finite and ordered
    ch = sc.ParallelChannel([1e307], 0.1, n0=1.0)
    rates = [f(ch, [1e-10]) for f in (sc.markov_lower, sc.exact_rate, sc.jensen_upper)]
    assert 0.0 < rates[0] <= rates[1] <= rates[2] < float("inf"), rates
    print(rates)
    # at n0 = 1e-300 the load overflows: it is refused, by bin
    try:
        sc.exact_rate(sc.ParallelChannel([1e307], 0.1, n0=1e-300), [1.0])
    except ValueError as exc:
        assert "overflows in bin 0" in str(exc), exc
        print(exc)
    else:
        raise AssertionError("a load past DBL_MAX was accepted")
    # mu/n0 = 1e309 is past DBL_MAX, but the optimal solver reads it in units of a power
    # of two below the water level: it solves, 0.16 nats above waterfilling
    ch = sc.ParallelChannel([1.0, 1e307], 0.1, n0=1e-3)
    p, swf = sc.optimal_allocation(ch, 0.05), sc.waterfill(ch.mean_gains, 1e-3, 0.05)[0]
    rates = [f(ch, p) for f in (sc.markov_lower, sc.exact_rate, sc.jensen_upper)]
    assert (p > 0.0).all() and abs(p.sum() / 0.05 - 1.0) <= 1e-12, p
    assert 0.0 < rates[0] <= rates[1] <= rates[2] < float("inf"), rates
    assert rates[1] > sc.exact_rate(ch, swf) + 0.16, (rates, swf)
    print(p, rates)


def check_extreme_profiles():
    # a water level whose sum passes DBL_MAX is formed in scaled units: finite powers that
    # meet the budget
    p, nu = sc.waterfill([2e-308, 1e-308], 1.0, 1.7e308)
    assert np.isfinite(p).all() and p.sum() == 1.7e308, p
    print(p, nu)
    # f**-d underflows at 5-6 GHz from d of about 34, not the profile's ratios; past their
    # range the refusal names decay_exponent
    _cli("bounds-sweep", "--n-bins", "8", "--decay-exponent", "100", "--output", "decay.csv")
    _cli("bounds-sweep", "--n-bins", "8", "--decay-exponent", "1e308", "--output", "huge.csv",
         refused=["decay_exponent"])


if __name__ == "__main__":
    for check in (check_every_command, check_ingest_faults, check_padded_rule,
                  check_load_range, check_nodes_past_dbl_max, check_extreme_profiles):
        print(f"== {check.__name__}")
        check()
