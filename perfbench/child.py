"""Run one simocap CLI invocation in this fresh interpreter.

Usage: python3 perfbench/child.py [--trace-out SPANS.npz] <subcommand> [args...]

The CLI is entered through ``simocap.cli.main(argv)``, never through
``python -m simocap.cli``: the module has no ``__main__`` guard, so that
form exits 0 without doing anything.  With ``--trace-out`` the tracer is
installed before the call and its spans are written afterwards.
"""

import sys


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--trace-out"]:
        from tracer import Tracer

        trace_out, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    import simocap.cli

    code = simocap.cli.main(argv)
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
