"""simocap benchmark: run one workload of real CLI commands and report metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload compute-64 --seed 0 --seconds 55 --trace 0

Each CLI command runs in a fresh interpreter (``perfbench/child.py``, which
calls ``simocap.cli.main(argv)``) with ``PYTHONPATH=src`` and
``SIMOCAP_WORKERS=1``.  Wall time, and each child's own CPU time and
peak RSS from ``os.wait4``, are taken per command.  With ``--trace 0``
the workload repeats until ``--seconds`` is spent and the means of its
iterations' times are reported as the end-to-end metrics.  With
``--trace 1`` it runs once untraced and once under the span tracer and
reports the per-layer metrics.  Every output is checked; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.perfbench_work/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # every child is killed before the run passes this
PINNED_ENV = {
    "SIMOCAP_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Iteration:
    procs: list[Proc] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def failed(self) -> int:
        return sum(1 for probs in self.problems if probs)


class Runner:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        src = str(root / "src")
        self.env = dict(os.environ)
        self.env.update(PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH", "")) if p
        )
        self.env["TMPDIR"] = str(work)

    def spawn(self, argv: list[str], log: Path) -> Proc:
        """Run one fresh interpreter; time it and read its own rusage."""
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
        )

    def iterate(self, workload, tag: str, trace: bool = False) -> Iteration:
        it = Iteration()
        for cmd in workload.commands:
            for f in cmd.outputs:
                Path(f).unlink(missing_ok=True)
        for i, cmd in enumerate(workload.commands):
            extra = ["--trace-out", str(self.work / f"spans-{i}.npz")] if trace else []
            proc = self.spawn([str(CHILD), *extra, *cmd.argv], self.work / f"{tag}-{i}.log")
            it.procs.append(proc)
        for i, (proc, cmd) in enumerate(zip(it.procs, workload.commands)):
            problems = []
            if proc.code != 0:
                problems.append(f"command {i} exited with {proc.code}, see {tag}-{i}.log")
            for f in cmd.outputs:
                if not Path(f).is_file() or Path(f).stat().st_size == 0:
                    problems.append(f"missing or empty output {Path(f).name}")
            if not problems:
                try:
                    problems = cmd.check()
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"output check raised {exc!r}"]
            for p in problems[:5]:
                print(f"CHECK FAILED [{workload.name}]: {p}", file=sys.stderr)
            it.problems.append(problems)
        return it

    def setup_sample(self) -> Proc:
        """Interpreter start plus ``import simocap.cli``."""
        return self.spawn(["-c", "import simocap.cli"], self.work / "setup.log")


def _markov_cells(paths: list[str]) -> int:
    """Markov lower-bound values written to the given CSV outputs."""
    cells = 0
    for path in paths:
        if not path.endswith(".csv") or not Path(path).is_file():
            continue
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            if "c_lower_markov" in header:
                cells += sum(1 for _ in fh)
    return cells


def _output_bytes(paths: list[str]) -> int:
    total = 0
    for path in paths:
        for p in (Path(path), Path(path + ".meta.json")):
            if p.is_file():
                total += p.stat().st_size
    return total


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_env": PINNED_ENV,
    }


def timed_run(runner: Runner, workload, seconds: float):
    """Repeat the workload for ``seconds``; times are means over its iterations.

    The setup samples are taken one before each of the first iterations,
    inside the timed window, after one warm-up import.
    """
    setup_procs = [runner.setup_sample()]  # warm-up, not in setup_s
    iterations = []
    start = time.perf_counter()
    while True:
        if len(setup_procs) <= SETUP_SAMPLES:
            setup_procs.append(runner.setup_sample())
        t0 = time.perf_counter()
        iterations.append(runner.iterate(workload, f"iter{len(iterations)}"))
        now = time.perf_counter()
        # stop when one more iteration of the same length would overrun
        if (now - start) + (now - t0) > seconds:
            break
    while len(setup_procs) <= SETUP_SAMPLES:
        setup_procs.append(runner.setup_sample())
    attempted = len(setup_procs) + len(iterations) * len(workload.commands)
    failed = sum(p.code != 0 for p in setup_procs) + sum(it.failed for it in iterations)
    values = {
        "wall_s": statistics.fmean(it.wall_s for it in iterations),
        "cpu_s": statistics.fmean(sum(p.cpu_s for p in it.procs) for it in iterations),
        "setup_s": statistics.median(p.wall_s for p in setup_procs[1:]),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in it.procs) for it in iterations),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return iterations, attempted, failed, metrics


def traced_run(runner: Runner, workload):
    """One untraced and one traced iteration; per-layer metrics from the spans."""
    from layers import PER_COMMAND, PER_LAYER, summarize

    plain = runner.iterate(workload, "plain")
    traced = runner.iterate(workload, "traced", trace=True)
    attempted = 2 * len(workload.commands)
    failed = plain.failed + traced.failed
    spans = [runner.work / f"spans-{i}.npz" for i in range(len(workload.commands))]
    units = dict(PER_LAYER)
    units.update({f"cmd.{role}.{metric}": unit for role, metric, unit, _ in PER_COMMAND})
    values = dict.fromkeys(units, 0)
    csv = workload.channel_csv
    csv_bytes = Path(csv).stat().st_size if csv and Path(csv).is_file() else 0

    def summary(files, outputs, overhead_s):
        return summarize(files, csv_bytes=csv_bytes, output_bytes=_output_bytes(outputs),
                         markov_written=_markov_cells(outputs), overhead_s=overhead_s)

    if not all(f.is_file() for f in spans):
        print("error: a traced command wrote no spans", file=sys.stderr)
        failed = max(failed, 1)
    else:
        outputs = [f for cmd in workload.commands for f in cmd.outputs]
        whole, absent = summary(spans, outputs, traced.wall_s - plain.wall_s)
        values.update(whole)
        if absent:
            print(f"absent functions (reported as 0): {', '.join(absent)}", file=sys.stderr)
        for cmd, proc, files in zip(workload.commands, plain.procs, spans):
            alone = None
            for role, metric, _, source in PER_COMMAND:
                if role != cmd.role:
                    continue
                if source is None:
                    values[f"cmd.{role}.{metric}"] = proc.wall_s
                else:
                    alone = alone or summary([files], cmd.outputs, 0.0)[0]
                    values[f"cmd.{role}.{metric}"] = alone[source]
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return [plain, traced], attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    root = Path.cwd()
    if not (root / "src" / "simocap" / "cli.py").is_file():
        print(f"error: no simocap source tree under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work)
    workload = WORKLOADS[args.workload](args.seed, work)
    print(json.dumps({"environment": _environment(), "workload": args.workload,
                      "seed": args.seed, "commands": [c.argv for c in workload.commands]}),
          file=sys.stderr)

    if args.trace:
        iterations, attempted, failed, metrics = traced_run(runner, workload)
    else:
        iterations, attempted, failed, metrics = timed_run(runner, workload, args.seconds)
    for n, it in enumerate(iterations):
        cells = " ".join(f"{p.wall_s:.3f}s/{p.cpu_s:.3f}s/{p.rss_mb:.1f}MB" for p in it.procs)
        print(f"{args.workload} iteration {n}: {cells} failed={it.failed}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
