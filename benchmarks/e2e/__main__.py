"""``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e``: see
:mod:`benchmarks.e2e.bench`."""

import os
import sys

if not __package__:
    # Run by path: make the repository root importable.
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))

from benchmarks.e2e.bench import main  # noqa: E402

sys.exit(main())
