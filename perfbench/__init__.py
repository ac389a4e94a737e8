"""Benchmark harness for catteleport; run ``python3 perfbench/run.py --help``."""
