import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    """README's Quick start block runs as written, so the documented
    call shapes cannot drift from the API."""
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Quick start \(Python\)\n\n```python\n(.*?)```", text, re.S)
    scope: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, str(README), "exec"), scope)
    assert len(out.getvalue().splitlines()) == len(scope["result"].estimands)
    assert scope["pooled"].extras == {"m": 20}
