"""One morsecert step in a fresh interpreter, for work whose memory or start-up
must not be charged to the benchmark's own process.

    python3 perfbench/child.py ready p6|p5
        import the CLI and build the subject's polytope, moves and states
    python3 perfbench/child.py cli <morsecert arguments...>
        run `morsecert.cli.main` once; the last line of output is JSON with
        the exit code and what it printed
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def ready(subject: str) -> None:
    import morsecert.cli  # noqa: F401
    from morsecert.polytopes import build_p5, build_p6
    from morsecert.states import (
        balanced_states_p5, balanced_states_p6, move_system_p5, move_system_p6,
    )

    if subject == "p6":
        P = build_p6()
        move_system_p6()
        balanced_states_p6(P)
    else:
        P = build_p5()
        move_system_p5(P)
        balanced_states_p5(P)


def cli(argv) -> None:
    from morsecert.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    print(json.dumps({"rc": rc, "stdout": buf.getvalue()}))


if __name__ == "__main__":
    if sys.argv[1] == "ready":
        ready(sys.argv[2])
    else:
        cli(sys.argv[2:])
