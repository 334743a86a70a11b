"""Command-line tools.

* ``python -m repro.tools.train`` — train a zoo network (or a prototxt
  file) with the coarse-grain parallel runtime.
* ``python -m repro.tools.profile`` — per-layer breakdown of a real
  traced run plus the simulated testbed scaling figures.

The analysis suite is ``python -m repro.analysis``.
"""
