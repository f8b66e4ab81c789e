"""The README's examples against the code: the Python quick start runs, and
every documented ``specexp`` command line parses."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from specexp import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_quick_start_runs():
    (block,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert "Lambda^4" in out.getvalue()


def test_documented_command_lines_parse():
    parser, _ = cli.build_parser()
    lines = [shlex.split(line, comments=True)
             for block in _blocks("sh") for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "specexp"]
    assert len(commands) >= 8
    for argv in commands:
        parser.parse_args(argv)
