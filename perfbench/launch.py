"""Run one traced ``timepovm`` command: ``launch.py SPANS_JSON ARGS...``.

Behaves like the ``timepovm`` console script (same stdout, same exit code)
while the layer tracer records spans, which are written to SPANS_JSON when
the command ends.  The package directory must be on ``PYTHONPATH``.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["timepovm", *argv]
    tracer = Tracer()
    try:
        with tracer.span("cli.import"):
            import timepovm.cli as cli
        tracer.install()
        with tracer.span("cli.command"):
            code = cli.main(argv)
    finally:
        tracer.restore()
        counters = {}
        variational = sys.modules.get("timepovm.variational")
        if variational is not None:
            counters["variational.airy_operator_spectrum.misses"] = (
                variational.airy_operator_spectrum.cache_info().misses
            )
        tracer.dump(spans_path, {"counters": counters})
    return code


if __name__ == "__main__":
    sys.exit(main())
