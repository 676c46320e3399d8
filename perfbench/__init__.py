"""Benchmark of tfsep's ideal-binary-mask trials; see perfbench/run.py."""
