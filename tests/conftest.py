"""The README CLI block, run once per session under a function-entry trace."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from weylab.cli import main
from weylab.geometry import ConvexPolygon, save_polygon

README = Path(__file__).resolve().parents[1] / "README.md"

# run after the README lines, inside the same trace: a polygon FD heat-check on
# a square that save_polygon writes there, and a Neumann gamma < 1 shape-opt
# that writes its trace CSV
TRACE_EXTRA = ("heat-check --domain polygon:square.json --grid-h 0.02 --t 0.01:0.04:4",
               "shape-opt --lambda 100:100:1 --gamma 0.5 --bc neumann --csv trace.csv")


@pytest.fixture(scope="session")
def readme_block_run(tmp_path_factory):
    """Every README CLI line, then TRACE_EXTRA, run in one scratch directory.

    Returns (runs, entered): the (argv, exit code, stdout) of each line in
    order, and the code objects of every Python function entered meanwhile.
    A functools cache that answers from memory enters nothing, so a cached
    function whose cache was asked counts as entered too.
    """
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("weylab ")]
    lines += [line.split() for line in TRACE_EXTRA]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    caches = [f for name, mod in list(sys.modules.items())
              if name.startswith("weylab.") for f in vars(mod).values() if hasattr(f, "cache_info")]
    asked = [f.cache_info() for f in caches]
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("readme"))
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            save_polygon(ConvexPolygon.rectangle(1.0, 1.0), "square.json")
            for argv in lines:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                runs.append((argv, code, out.getvalue()))
        finally:
            sys.setprofile(previous)
    entered |= {f.__wrapped__.__code__ for f, info in zip(caches, asked) if f.cache_info() != info}
    return runs, entered
