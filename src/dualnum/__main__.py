import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()  # a closed pipe raises here, not at exit
except BrokenPipeError:  # and the flush at exit would raise again
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 3
sys.exit(code)
