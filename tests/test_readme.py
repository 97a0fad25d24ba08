"""The README's examples run as written and print what their comments say."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from congruence_workbench.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of the given language after a heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    return match.group(1)


def _cli_block() -> list[str]:
    """The lines of the CLI block, continuation lines joined."""
    return _block("CLI", "sh").replace("\\\n", " ").splitlines()


def _cli_lines() -> list[str]:
    """Every ``congruence-workbench`` command of the CLI block."""
    return [line for line in _cli_block() if line.startswith("congruence-workbench ")]


def _run(command: str, capsys):
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_library_example():
    code = _block("Library example", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    commented = [line.split("#", 1) for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(commented) == 3
    for line, (_, comment) in zip(printed, commented):
        assert line == comment.strip()


def test_cli_block_is_found():
    assert len(_cli_lines()) == 9


@pytest.mark.parametrize("command", _cli_lines())
def test_cli_line_runs(command, capsys):
    code, out, err = _run(command, capsys)
    if "--family t3" in command:
        # refused by design: it needs series precision of about 13^13
        assert code == 2 and out == "" and "above the cap" in err, err
    else:
        assert code == 0, err
        assert out


def _commented_outputs() -> list[tuple[str, str]]:
    """(command, comment) for each CLI line directly followed by '#' lines showing its output."""
    lines = _cli_block()
    pairs = []
    for i, line in enumerate(lines):
        if not line.startswith("congruence-workbench "):
            continue
        comment = []
        for following in lines[i + 1 :]:
            if not following.startswith("# "):
                break
            comment.append(following[2:])
        if comment:
            pairs.append((line, "".join(comment)))
    return pairs


def test_commented_outputs_are_found():
    commands = [command.split()[1] for command, _ in _commented_outputs()]
    assert commands == ["coeffs", "verify", "find-w"]


@pytest.mark.parametrize("command, comment", _commented_outputs())
def test_cli_output_matches_comment(command, comment, capsys):
    code, out, _ = _run(command, capsys)
    assert code == 0
    if comment.startswith("{"):  # a certificate, wrapped over comment lines
        assert json.loads(out) == json.loads(comment)
    else:  # the last line printed, tabs shown as spaces
        assert out.splitlines()[-1].split() == comment.split()
