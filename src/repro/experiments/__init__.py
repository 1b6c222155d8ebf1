"""Experiment regenerators — one module per paper table/figure.

Each module exposes ``run(...)`` returning a structured result (the
rows/series the paper reports), ``render(result)`` — the one place its
paper-vs-measured block is written — and ``main()``, which prints the
result's own data view followed by that block, byte for byte as
EXPERIMENTS.md holds it.  Table III renders from its per-scale parts
instead (``run_part`` + ``render_block``).  The ids and their order
live in :data:`repro.exec.registry.EXPERIMENT_IDS`, which imports a
module on first lookup; importing this package loads no experiment.
"""
