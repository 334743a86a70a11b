"""Command-line tools.

* ``python -m repro.tools.train`` — train a zoo network (or a prototxt
  file) with the coarse-grain parallel runtime.
* ``python -m repro.tools.profile`` — per-layer breakdown of a real
  traced run plus the simulated testbed scaling figures.

The analysis suite is ``python -m repro.analysis``.
"""

import argparse


def at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``, so a
    nonsense count is a usage error naming its flag (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse



def positive_float(text: str) -> float:
    """An argparse ``type``: a finite number above zero, so a nonsense
    rate (``0``, ``-5``, ``nan``, ``inf``) is a usage error (exit 2)."""
    value = float(text)
    if not 0 < value < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}")
    return value
