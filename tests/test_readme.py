"""The README's library snippet runs and prints what its comments say,
and every command it lists under "Subcommands" succeeds."""

import re
import shlex
from pathlib import Path

from entrolab.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_snippet(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [line for line in blocks[0].splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    for call, line in zip(calls, printed):
        comment = call.partition("#")[2].strip()
        if comment.endswith("..."):
            # a list shown by its first entries, without brackets
            assert line.strip("[]").startswith(comment[:-3])
        elif comment:
            assert line == comment
    assert printed[0].startswith("[5, 17, 53, ")
    assert printed[2] == "{0: 1, -1: 1, -2: 0}"


def test_readme_subcommands_exit_0(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    text = README.read_text("utf-8")
    lines = re.search(r"### Subcommands\n\n```\n(.*?)```", text, re.S)[1].splitlines()
    assert len(lines) == 5
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "entrolab"
        assert main(argv) == 0, line
        assert capsys.readouterr().out
