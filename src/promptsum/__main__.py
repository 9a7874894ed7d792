"""``python -m promptsum SUBCOMMAND ...`` runs the subcommand pipeline."""

from .cli import main

if __name__ == "__main__":
    main()
