"""Benchmark of the ecrm train -> predict pipeline; run ``perfbench/run.py``."""
