"""`python -m regulab ...` runs the command-line interface, as the `regulab`
script does."""

from .cli import main

raise SystemExit(main())
