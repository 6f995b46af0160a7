import sys

from .cli import main

if __name__ == "__main__":  # a spawned pool worker imports this as __mp_main__
    sys.exit(main())
