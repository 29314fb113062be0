"""`python -m hbwave <verb> config.ini ...` runs the command line of
`hbwave.cli`."""
from .cli import main

if __name__ == "__main__":
    main()
