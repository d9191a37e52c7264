import re
import shlex
from pathlib import Path

from chaosinfer.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    # The documented example must keep running as the public names change.
    block = re.search(r"## Library use\n+```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    selected, rate = capsys.readouterr().out.split()
    assert selected == "1" and abs(float(rate) - 1.0) < 0.01


def test_flag_list_matches_the_parser():
    # The hand-written "Flags:" list names every option of the parser, and no other.
    paragraph = re.search(r"^Flags: `(.*?)`", README.read_text(), re.S | re.M)
    assert paragraph is not None
    listed = set(re.findall(r"--[a-z][a-z-]*", paragraph.group(1)))
    parsed = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert listed == parsed - {"-h", "--help"}


def test_running_commands_parse():
    # Every command of "Running the experiment" is one the CLI accepts.
    block = re.search(r"## Running the experiment\n+```sh\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    commands = [line for line in block.group(1).splitlines() if line.startswith("chaosinfer ")]
    assert commands
    for command in commands:
        build_parser().parse_args(shlex.split(command, comments=True)[1:])
