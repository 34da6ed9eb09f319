"""Wall-clock benchmark of AIDE; run ``python3 perfbench/run.py --help``."""
