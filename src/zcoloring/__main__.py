"""`python -m zcoloring ARGS` runs the `zcolor` command line and exits with
its code, with no install needed beyond `src` on the module path."""

import sys

from .cli import main

sys.exit(main())
