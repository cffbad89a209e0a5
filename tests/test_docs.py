"""The python examples in README.md run as written, and every CLI flag it
names exists."""

import argparse
import re
from pathlib import Path

import pytest

from fdout.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


def test_readme_flags_are_cli_options():
    text = "\n".join(line for line in README.read_text(encoding="utf-8").splitlines()
                     if not line.lstrip().startswith("pip "))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    options = {flag for sub in subparsers.values() for action in sub._actions
               for flag in action.option_strings}
    assert named, "README names no flag"
    assert named <= options, sorted(named - options)
