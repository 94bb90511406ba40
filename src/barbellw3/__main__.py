import sys

from .cli import launch

sys.exit(launch())
