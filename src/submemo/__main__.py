"""``python -m submemo``: the benchmark command line."""

from .bench.cli import main

if __name__ == "__main__":
    main()
