"""``python -m benchmarks.harness`` — see :mod:`benchmarks.harness.run`."""

import sys

from benchmarks.harness.run import main

sys.exit(main())
