"""README's quick example runs as written."""
import contextlib
import io
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert json.loads(out.getvalue())["method"] == "Slope"
