"""``repro serve`` with the layer tracer installed, for the traced run.

Usage (started by ``loadgen.py``)::

    python3 perfbench/launcher.py SUMMARY.json SPANS.ndjson -- SERVE-ARGS...

Wraps the layers before the server starts, so the server and the load
generator stay separate processes as in the untraced run.  ``SIGUSR1``
starts recording and ``SIGUSR2`` stops it, so only the timed schedule is
traced.  At shutdown (``SIGTERM``, the server's own graceful drain) every
wrapper is removed and the spans and per-layer totals are written out.
"""

from __future__ import annotations

import json
import signal
import sys

import common

common.use_source()


def main(argv) -> int:
    summary_path, spans_path, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit(__doc__)
    from tracing import Tracer, leftover_wrappers
    from repro.cli import main as repro_main
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.start())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.stop())
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        tracer.stop()
        tracer.remove()
        summary = tracer.summary()
        summary["spans_written"] = tracer.write_spans(spans_path)
        summary["leftover_wrappers"] = leftover_wrappers()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
