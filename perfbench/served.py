"""The planner daemon with the timing wrappers of :mod:`spans` installed.

Runs ``mc3 <args>`` in this process exactly as ``python -m repro.cli``
would, then writes the daemon's spans and counts to ``SPANS_JSON`` once
the daemon has drained and exited (``serve`` returns after SIGTERM).

Usage::

    python3 perfbench/served.py SPANS_JSON serve COSTS_CSV --socket PATH ...
"""

from __future__ import annotations

import sys

from spans import Recorder, install


def main(argv) -> int:
    out_path, mc3_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as mc3_main

    try:
        return mc3_main(mc3_args)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
