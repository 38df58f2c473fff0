"""The README's quick start runs and prints what the README shows, and its
table of the scenario format is the parser's."""

import contextlib
import io
import re
from pathlib import Path

from laneassign.harness import _FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_its_shown_output():
    # The first python block, and the plain block right after it.
    match = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", README.read_text(), re.S)
    code, shown = match.groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert out.getvalue() == shown


def test_the_format_table_lists_the_fields_of_the_parser():
    table = re.search(r"\| field \| level \| required \| meaning \|\n\|[-|]+\n((?:\|.*\n)+)",
                      README.read_text()).group(1)
    rows = set()
    for line in table.splitlines():
        names, level, required = (cell.strip() for cell in line.split(" | ")[:3])
        for name in re.findall(r"`([^`]+)`", names):
            rows.add((name.rpartition(".")[2], level, required == "yes"))
    parser = {(name, kind, required)
              for kind, fields in _FIELDS.items() for name, required in fields.items()}
    assert rows == parser
