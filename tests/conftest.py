"""Child interpreters that the tests start import ``uavnoma`` from ``src``,
as pytest's ``pythonpath`` setting makes this one do, whether or not the
package is installed."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)
