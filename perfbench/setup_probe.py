"""Set-up time of one fresh interpreter: from before ``import contactkit``
until the workload's model is built and validated.

Usage: python3 setup_probe.py SRC_DIR CONSTRUCTOR JSON_ARGS
Prints the seconds taken.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import contactkit  # noqa: E402

getattr(contactkit, sys.argv[2])(*json.loads(sys.argv[3]))
print(perf_counter() - t0)
