"""Comparison and logic mutants of simocap modules, and the ones their tests do not kill.

    python tests/mutants.py alloc rates channel

For each comparison operator in a module, one mutant flips it (``<`` with
``<=``, ``>`` with ``>=``), and for each logical one swaps it (``and`` with
``or``, ``&`` with ``|``), in a temporary copy of ``src/simocap``, ``tests``
and ``pyproject.toml``, and runs the module's test files there, stopping at the
first failure.  The operator is spliced into the source text, so every other
byte and every line number stays; an ``and``/``or`` swap changes the length of
its token, so the columns after it on its line move by one.  The tree itself is
never written.  Prints each mutant's line:column, at the operator as in the
unmutated source, and fate, then the survivors; exits 1 if there are any.
Each mutant is one pytest run, so this is a tool for audits, not part of the test suite.
"""

import ast
import itertools
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
FLIP = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
        ast.And: ("and", "or"), ast.Or: ("or", "and"), ast.BitAnd: ("&", "|"),
        ast.BitOr: ("|", "&")}
TESTS = {  # the test files that exercise each module most directly
    "alloc": ["test_alloc.py", "test_alloc_properties.py"],
    "channel": ["test_channel.py", "test_alloc.py", "test_rates.py"],
    "cli": ["test_cli.py"],
    "ingest": ["test_ingest.py", "test_ingest_properties.py"],
    "rates": ["test_rates.py", "test_rates_properties.py"],
    "specfun": ["test_specfun.py", "test_channel.py"],
}


def operands(node):
    # (left, operator, right) for each operator of a comparison, boolean or binary operation
    if isinstance(node, ast.Compare):
        return zip([node.left, *node.comparators], node.ops, node.comparators)
    if isinstance(node, ast.BoolOp):
        return ((left, node.op, right) for left, right in zip(node.values, node.values[1:]))
    return [(node.left, node.op, node.right)] if isinstance(node, ast.BinOp) else []


def mutants(source: bytes):
    # ("line:column", old, new, mutated source) for each flippable operator; offsets count bytes
    starts = [0, *itertools.accumulate(map(len, source.splitlines(keepends=True)))]
    for node in ast.walk(ast.parse(source)):
        for left, op, right in operands(node):
            if type(op) not in FLIP:
                continue
            old, new = FLIP[type(op)]
            # the operator is the only token between its operands, bar parentheses
            begin = starts[left.end_lineno - 1] + left.end_col_offset
            at = source.index(old.encode(), begin, starts[right.lineno - 1] + right.col_offset)
            line = source.count(b"\n", 0, at)
            yield (f"{line + 1}:{at - starts[line] + 1}", old, new,
                   source[:at] + new.encode() + source[at + len(old):])


def passes(work: pathlib.Path, module: str) -> bool:
    tests = [f"tests/{name}" for name in TESTS[module]]
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *tests], cwd=work, env=dict(os.environ, PYTHONPATH=str(work / "src")),
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main(modules) -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        shutil.copytree(ROOT / "src" / "simocap", work / "src" / "simocap")
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        for module in modules:
            path = work / "src" / "simocap" / f"{module}.py"
            original = path.read_bytes()
            if not passes(work, module):
                raise SystemExit(f"{module}: its tests fail before any mutation")
            for place, old, new, mutated in mutants(original):
                path.write_bytes(mutated)
                start = time.perf_counter()
                killed = not passes(work, module)
                print(f"{module}.py:{place}: {old} -> {new} "
                      f"{'killed' if killed else 'SURVIVED'} ({time.perf_counter() - start:.1f} s)",
                      flush=True)
                if not killed:
                    survivors.append(f"{module}.py:{place}: {old} -> {new}")
            path.write_bytes(original)
    print("survivors:", *survivors or ["none"], sep="\n  ")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or sorted(TESTS)))
