"""Set-up probe run in a fresh interpreter: import alphaflow, build one workload's inputs.

Usage: python3 benchmarks/setup_child.py <workload> <seed>
The parent times this process from spawn to exit; that time is ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
