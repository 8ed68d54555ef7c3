"""Set-up cost of semcom in a fresh interpreter.

Times importing the modules the workloads use and the first trial, which
fills the lazy caches (such as the encoder's pixel grid), and prints the
seconds. Usage: python3 setup_probe.py <directory holding the semcom package>
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from semcom import funcomp, harness, phy  # noqa: E402,F401

harness.run_trial("red-circle", 8, 15.0, harness.trial_rng(0, 0))
print(time.perf_counter() - t0)
