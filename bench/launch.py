"""Run one ``nclp`` command line from the checkout's ``src``, as the CLI would.

Usage: python3 bench/launch.py <nclp arguments...>

When the environment names a span file (``NCLP_BENCH_TRACE_FILE``), the
launcher installs the benchmark's wrappers before calling
``nclp.cli.main`` and writes the spans there on exit, led by a
``cli.import`` span that times ``import nclp.cli`` in CPU seconds.
"""

import os
import sys
import time

start = time.process_time()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import nclp.cli  # noqa: E402

imported = time.process_time()


def main() -> int:
    trace_file = os.environ.get("NCLP_BENCH_TRACE_FILE")
    if not trace_file:
        return nclp.cli.main(sys.argv[1:])
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.spans.append(("cli.import", start, imported, -1, None))
    tracer.active = True
    try:
        return nclp.cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        tracing.write_spans(trace_file, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
