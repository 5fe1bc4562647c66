"""The repository benchmark: `python3 perf/run.py` (see README.md)."""
