"""README.md stays true: its Python examples run, its config-key table
lists exactly the keys the config parser accepts, its CLI section names
exactly the flags the parser accepts and every dotted lrbench name it puts
in backticks exists."""

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import lrbench
from lrbench.cli import build_parser
from lrbench.config import CONFIG_KEYS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) == 3


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_example_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}",
                 "exec"), {})


def test_config_table_lists_exactly_the_config_keys():
    section = README.split("### Config file", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [key for row in rows
            for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(CONFIG_KEYS)


def test_cli_section_names_exactly_the_parser_flags():
    # the section ends at the next level-2 heading, so Install's pip flags
    # stay out
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {option for sub in subparsers.choices.values()
             for action in sub._actions for option in action.option_strings
             if option.startswith("--")}
    assert documented == flags - {"--help"}


def test_dotted_names_resolve():
    # a dotted name is lrbench's when it starts with the package, one of its
    # modules or a name the package exports; file names such as
    # schedule.csv or confusion.csv are not
    modules = {info.name for info in pkgutil.iter_modules(lrbench.__path__)}
    names = [name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README)
             if name.split(".")[0] in {"lrbench", *modules, *lrbench.__all__}
             and not re.search(r"\.(csv|txt|json|cfg|md|py)$", name)]
    assert "lrbench.groups" in names
    stale = []
    for name in names:
        first, *rest = name.removeprefix("lrbench.").split(".")
        obj = (importlib.import_module(f"lrbench.{first}") if first in modules
               else getattr(lrbench, first))
        for part in rest:
            if not hasattr(obj, part):
                stale.append(name)
                break
            obj = getattr(obj, part)
    assert stale == []
