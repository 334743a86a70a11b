"""Run the analysis suite straight from a checkout (sets ``sys.path``);
same as ``PYTHONPATH=src python -m repro.analysis`` — see its ``--help``."""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
)

from repro.analysis.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
