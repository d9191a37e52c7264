import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    # The documented example must keep running as the public names change.
    block = re.search(r"## Library use\n+```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    selected, rate = capsys.readouterr().out.split()
    assert selected == "1" and abs(float(rate) - 1.0) < 0.01
