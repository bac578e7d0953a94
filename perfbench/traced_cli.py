"""Run the curvedwigner CLI with every layer traced.

    python perfbench/traced_cli.py SPANS.npz CLI-ARGS...

Behaves like ``python -m curvedwigner.cli CLI-ARGS...`` (same outputs, same
exit code) and additionally writes the recorded spans to SPANS.npz when the
command ends.  ``src`` must be on PYTHONPATH.
"""

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    tracer.install(rec)
    from curvedwigner import cli

    try:
        return cli.main(argv)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
