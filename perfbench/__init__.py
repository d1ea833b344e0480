"""perfbench: the repo's end-to-end + per-layer benchmark.

``python -m perfbench`` runs four workloads against the code under
``src/`` and reports host cost per unit of simulated work while checking
that every simulated outcome stays bit-identical.  See README.md in this
directory for the metric tables and how to read them.

Importing this package does nothing; ``__main__`` is the entry point.
"""
