"""The README's library example and CLI lines run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from alcovepaths import cli

README = Path(__file__).resolve().parent.parent / "README.md"

CLI_LINES = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    for line in block.splitlines()
    if line.startswith("alcovepaths ")
]


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    assert out.getvalue().splitlines()[0] == "15"


def test_readme_lists_cli_lines():
    assert len(CLI_LINES) == 11


@pytest.mark.parametrize("line", CLI_LINES,
                         ids=[line.split("#")[0].strip() for line in CLI_LINES])
def test_readme_cli_line(capsys, line):
    # a bare integer comment is the last stdout line; "(n paths)" its total
    command, _, comment = line.partition("#")
    assert cli.main(shlex.split(command)[1:]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    comment = comment.strip()
    if comment.isdigit():
        assert last == comment
    if m := re.search(r"\((\d+) paths\)", comment):
        assert last == f"total: {m.group(1)}"
