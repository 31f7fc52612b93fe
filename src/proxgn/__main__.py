"""``python -m proxgn``: the ``proxgn`` command line, run from the package."""
from .cli import entry_point

if __name__ == "__main__":
    entry_point()
