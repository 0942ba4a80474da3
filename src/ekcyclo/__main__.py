"""``python -m ekcyclo``: the command line of cli.main."""
import sys

from .cli import main

sys.exit(main())
