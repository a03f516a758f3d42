"""``python -m mwlab``: the same command line as the ``mwlab`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
