"""Traced launcher for the HTTP service: install span wrappers, then serve.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py SPANS_OUT -- --port 0 --workers 2

Everything after ``--`` goes to ``repro.service.__main__.main``.  The
spans (``X-Request-Id`` carried as the request id) are written to
SPANS_OUT when the server stops on SIGINT.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    out, separator, *service_args = argv
    if separator != "--":
        raise SystemExit("usage: serve_traced.py SPANS_OUT -- SERVICE_ARGS...")
    store = spans.SpanStore()
    spans.install(store)
    from repro.service.__main__ import main as serve

    try:
        serve(service_args)
    finally:
        store.dump(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
