"""The README's library tour and command-line examples run as written and print what they show."""

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from chromsym.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_as_written():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    promised = [line.split("# ", 1)[1] for line in blocks[0].splitlines() if line.startswith("print(")]
    assert out.getvalue().splitlines() == promised


def test_console_examples_print_what_is_shown(capsys):
    blocks = re.findall(r"```console\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    examples = re.findall(r"^\$ chromsym (.*)\n((?:[^$\n].*\n)*)", blocks[0], re.MULTILINE)
    assert len(examples) == 5
    for command, shown in examples:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == shown, command
