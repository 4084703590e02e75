"""``python -m timepovm``: the same command line as the ``timepovm`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
