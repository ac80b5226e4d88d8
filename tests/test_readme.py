"""README's library sketch runs as printed and agrees with the pipeline, so
the documented API cannot drift from the code."""

import contextlib
import io
import pathlib
import re

from truncbound.models import GM1Model
from truncbound.pipeline import run_pipeline

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_sketch() -> str:
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_matches_run_pipeline():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_sketch(), str(README), "exec"), {"__name__": "readme"})
    printed = [float(v) for v in out.getvalue().split()]
    rep = run_pipeline(GM1Model(), {"kind": "range", "max": 10000},
                       envelopes=["r"]).reports["r"]
    assert printed == [rep.lower, rep.approx, rep.upper, rep.tv_bound]
