"""Subprocesses that run `python -m psqm.cli` import the package from
src/ as well: pytest's `pythonpath` option reaches only this process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
