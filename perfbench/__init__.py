"""Serving benchmark of the auction stack; run ``python3 perfbench/run.py``."""
