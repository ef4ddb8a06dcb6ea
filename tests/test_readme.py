"""Every CLI example in README.md runs and must match its shown output."""

import shlex
from pathlib import Path

import pytest

from toricjac import linalg

from conftest import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _console_examples():
    """(argv, expected stdout lines) for each `$ ...` in a console block."""
    examples = []
    inside = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            inside = line.strip() == "```console"
            current = None
            continue
        if not inside:
            continue
        if line.startswith("$ "):
            current = (shlex.split(line[2:]), [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return examples


def _cli_examples():
    return [(argv[1:], expected) for argv, expected in _console_examples()
            if argv and argv[0] == "toricjac"]


def test_readme_shows_a_full_battery():
    assert len(_cli_examples()) >= 10


@pytest.mark.parametrize(
    "argv,expected", _cli_examples(),
    ids=[" ".join(argv[1:])[:48] for argv, _ in _cli_examples()])
def test_readme_example(argv, expected, monkeypatch):
    monkeypatch.chdir(README.parent)  # examples use repo-relative paths
    code, out, err = run_cli(argv)
    assert code == 0
    assert err == ""
    assert out.splitlines() == expected


def test_readme_examples_need_no_dense_rref_or_kernel(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a command reached the dense rref/kernel path")

    monkeypatch.chdir(README.parent)
    monkeypatch.setattr(linalg, "rref", forbidden)
    monkeypatch.setattr(linalg, "kernel", forbidden)
    for argv, expected in _cli_examples():
        code, out, err = run_cli(argv)
        assert (code, err, out.splitlines()) == (0, "", expected), argv


def test_readme_python_blocks():
    blocks = []
    inside = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if line.strip() == "```python":
                inside = True
                blocks.append([])
            else:
                inside = False
            continue
        if inside:
            blocks[-1].append(line)
    assert blocks
    for block in blocks:
        code = compile("\n".join(block), str(README), "exec")
        exec(code, {"__name__": "readme_example"})
