"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: python perfbench/launcher.py --trace-out FILE serve ARGS...

The wrappers (:func:`spans.install_program`) are bound before the
unchanged ``repro serve`` entry point runs.  Recording starts off;
SIGUSR1 switches it on and SIGUSR2 off, each acknowledged by creating
``FILE`` with an ``.ack`` suffix.  When the server has drained (SIGTERM)
the recorded spans are written to ``FILE``.
"""

from __future__ import annotations

import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import ensure_program  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trace_out = pathlib.Path(argv[1])
    ensure_program()
    from repro import cli
    from spans import Tracer, install_program

    tracer = Tracer(enabled=False)
    install_program(tracer)
    ack = trace_out.with_suffix(".ack")

    def switch(signum, _frame):
        tracer.enabled = signum == signal.SIGUSR1
        ack.touch()

    signal.signal(signal.SIGUSR1, switch)
    signal.signal(signal.SIGUSR2, switch)
    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
