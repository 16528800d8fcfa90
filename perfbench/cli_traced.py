"""Run the branchkit CLI under the span tracer.

    python cli_traced.py SUMMARY.json SPANS.npz <branchkit arguments>

Behaves like `python -m branchkit.cli <arguments>` (same output and exit
code) and also writes the tracer's summary and spans.
"""

import sys

from branchkit import cli

import tracer as tr


def main():
    summary_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t = tr.Tracer()
    tr.install(t)
    try:
        rc = cli.main(argv)
    finally:
        t.restore()
        tr.dump_summary(t, summary_path)
        t.save(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
