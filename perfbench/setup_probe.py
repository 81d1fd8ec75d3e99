"""Set-up as a fresh process pays it: import risfso and validate a config.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG
"""

import sys

from risfso import cli

cli.validate_config(sys.argv[1])
