"""Entry point for ``python -m simocap``."""

from .cli import run

run()
