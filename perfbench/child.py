"""Traced child for the ``cli-mix`` workload.

Usage: ``python perfbench/child.py SPANS_PATH OP_ID -- <epigames argv>``.
Installs the span recorder, then calls ``epigames.cli.main`` as the
installed command would.  Spans are written to SPANS_PATH when the process
ends, whatever its exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import Recorder  # noqa: E402


def main() -> None:
    spans_path, op_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: child.py SPANS_PATH OP_ID -- ARGV...")
    recorder = Recorder()
    recorder.install()
    recorder.start_op(int(op_id))
    import epigames.cli

    sys.argv = ["epigames", *argv]
    root = recorder.begin("bench.op")
    try:
        epigames.cli.main()
    finally:
        recorder.end(root)
        recorder.dump(spans_path)


if __name__ == "__main__":
    main()
