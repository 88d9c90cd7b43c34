import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_converges():
    # the README's Quick start block, run as written
    text = README.read_text()
    quick_start = text[text.index("## Quick start"):]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert float(out.getvalue()) < 1e-10
