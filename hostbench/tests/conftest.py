"""Make the benchmark modules and the program importable from the tests."""

import sys
from pathlib import Path

HOSTBENCH = Path(__file__).resolve().parent.parent
for path in (HOSTBENCH.parent / "src", HOSTBENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
