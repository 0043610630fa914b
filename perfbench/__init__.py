"""Benchmark of the esnrae pipeline; see ``run.py`` for how to run it."""
