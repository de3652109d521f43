import sys

from .cli import dispatch

if __name__ == "__main__":
    sys.exit(dispatch())
