"""Regenerate the default-seed reference outputs in perfbench/reference/.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py

Runs every workload once at the default seed with the library in ``src/``
and stores what it wrote: the CSVs, the ingest JSON, and the SHA-256 of
the generated channel CSV (the 7.7 MB file itself is not kept).  Then the
workload checks run against the new references, so the invariants are
verified too.  Regenerate only when a change is meant to alter results.
"""

import hashlib
import shutil
import sys
from pathlib import Path

from run import Runner
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    runner = Runner(root, work)
    status = 0
    for name, build in WORKLOADS.items():
        workload = build(DEFAULT_SEED, work)
        problems = []
        for i, cmd in enumerate(workload.commands):
            proc = runner.spawn([str(Path(__file__).with_name("child.py")), *cmd.argv],
                                work / f"{name}-{i}.log")
            if proc.code != 0:
                print(f"{name}: command {i} exited with {proc.code}", file=sys.stderr)
                return 1
            for f in map(Path, cmd.outputs):
                if f.name.endswith("-channel.csv"):
                    digest = hashlib.sha256(f.read_bytes()).hexdigest()
                    (REFERENCE_DIR / (f.name + ".sha256")).write_text(f"{digest}  {f.name}\n")
                else:
                    shutil.copyfile(f, REFERENCE_DIR / f.name)
            problems += cmd.check()
        for p in problems:
            print(f"{name}: {p}", file=sys.stderr)
        status |= bool(problems)
        print(f"{name}: reference written, {len(problems)} problems")
    return status


if __name__ == "__main__":
    sys.exit(main())
