import os
import sys

from .cli import main

if __name__ == "__main__":  # a spawned pool worker imports this as __mp_main__
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
    except BrokenPipeError:  # exit 128 + SIGPIPE, with nothing left to flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
