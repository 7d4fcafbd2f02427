"""README.md run as written: its demo circuit through every command of its
transcript, and its library snippet, must print what the README shows.

`check` is left out: its printed deviations depend on the platform's
floating point.
"""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from quopitsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
# (info string, body) of every fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def _block(lang: str, start: str) -> str:
    """The one fenced block tagged lang whose body starts with start."""
    found = [body for tag, body in BLOCKS
             if tag == lang and body.startswith(start)]
    assert len(found) == 1, f"{len(found)} README blocks start with {start!r}"
    return found[0]


def _transcript():
    """(argv, stdout) for each `$ quopitsim` command but `check`."""
    runs = []
    for chunk in _block("", "$ quopitsim").strip("\n").split("\n\n"):
        command, *out = chunk.split("\n")
        assert command.startswith("$ quopitsim "), command
        argv = command.split()[2:]
        if argv[0] != "check":
            runs.append((argv, "".join(line + "\n" for line in out)))
    return runs


TRANSCRIPT = _transcript()


@pytest.fixture
def demo_dir(tmp_path, monkeypatch):
    (tmp_path / "demo.qc").write_text(_block("", "p "), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_transcript_has_every_command():
    assert [argv[0] for argv, _ in TRANSCRIPT] == ["amp", "prob", "weight"]


@pytest.mark.parametrize("argv, stdout", TRANSCRIPT,
                         ids=[argv[0] for argv, _ in TRANSCRIPT])
def test_command_prints_readme_output(capsys, demo_dir, argv, stdout):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_workflow_runs_the_readme_circuit():
    # the CI step that runs the installed console script writes its own
    # copy of the demo circuit; a gate the transcript cannot see (R 0 acts
    # on a_0 = 1 with phase chi(0)) must still not drift between the two
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8")
    copy = re.search(r"cat > demo.qc <<'EOF'\n(.*?)\n *EOF\n", workflow,
                     flags=re.S).group(1)
    assert [line.strip() for line in copy.split("\n")] == \
        _block("", "p ").splitlines()


def test_library_snippet(demo_dir):
    # a line with a comment is an expression whose repr the comment gives
    namespace = {}
    checked = 0
    for line in _block("python", "from quopitsim").splitlines():
        source, _, comment = line.partition("#")
        if comment:
            assert repr(eval(source, namespace)) == comment.strip()
            checked += 1
        else:
            exec(source, namespace)
    assert checked == 2
