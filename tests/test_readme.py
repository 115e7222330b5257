"""The README's examples run as written: the quick tour, and every command
of the command-line block, after the block's own step that writes
torus7.json."""

import re
import shlex
from pathlib import Path

from morseshell.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language, after):
    """The first fenced block of the language after the heading."""
    tail = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", tail, re.S).group(1)


def test_quick_tour_runs():
    exec(compile(fenced("python", "## Library quick tour"), "README", "exec"),
         {})


def test_every_readme_command_exits_0(tmp_path, monkeypatch, capsys):
    block = fenced("sh", "## Command-line usage")
    script = re.search(r"<<'EOF'\n(.*?)\nEOF\n", block, re.S).group(1)
    commands = [line for line in block.splitlines()
                if line.startswith("morseshell ")]
    assert len(commands) == 17
    monkeypatch.chdir(tmp_path)
    exec(compile(script, "README", "exec"), {})
    assert (tmp_path / "torus7.json").exists()
    for line in commands:
        code = main(shlex.split(line)[1:])
        capsys.readouterr()
        assert code == 0, line
