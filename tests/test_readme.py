"""The README's quick start runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_its_shown_output():
    # The first python block, and the plain block right after it.
    match = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", README.read_text(), re.S)
    code, shown = match.groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert out.getvalue() == shown
