"""The README's library tour runs as written and prints what its comments say."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_as_written():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    promised = [line.split("# ", 1)[1] for line in blocks[0].splitlines() if line.startswith("print(")]
    assert out.getvalue().splitlines() == promised
