"""`python -m mvmlab ...` runs the command line, as `mvmlab ...` does."""

from .cli import main

if __name__ == "__main__":
    main()
