"""List the statements of src/lrbench that no test executes, then print the
package's size counts.

    python3 tools/unreached.py

Run it from the repository root. It runs ``pytest tests -q -p
no:cacheprovider`` in this process under a line tracer that records only the
lines of ``src/lrbench/*.py`` (the coverage package is not needed), and
prints each statement that no test executed as ``path:line: text``. A
statement counts as executed when any line it spans ran; docstrings are not
statements that run. It then prints the source line count of
``src/lrbench/*.py`` (as ``cat src/lrbench/*.py | wc -l``), the size of
``lrbench.__all__``, the sum over the modules' ``__all__`` lists and the
number of config keys, and exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import sys
from pathlib import Path

import pytest

SRC = Path("src")
PACKAGE = SRC / "lrbench"


def statement_spans(tree: ast.AST):
    """(line, lines spanned) of each statement in ``tree`` but docstrings."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        yield node.lineno, range(node.lineno, node.end_lineno + 1)


def unreached_statements(paths, run):
    """Call ``run()`` with a line tracer on the files ``paths``; returns
    run's result and ``path:line: text`` for each statement of those files
    that did not run, in path and line order. The trace function set before
    the call is set again after it."""
    wanted = {os.path.realpath(p): set() for p in paths}
    seen: dict[str, set | None] = {}

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = wanted.get(os.path.realpath(name))
        lines = seen[name]
        if lines is None:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    missed = []
    for path in sorted(paths):
        text = Path(path).read_text()
        source = text.splitlines()
        ran = wanted[os.path.realpath(path)]
        for line, span in sorted(statement_spans(ast.parse(text))):
            if ran.isdisjoint(span):
                missed.append(f"{path}:{line}: {source[line - 1].strip()}")
    return result, missed


def main() -> int:
    sys.path.insert(0, str(SRC.resolve()))
    code, missed = unreached_statements(
        sorted(PACKAGE.glob("*.py")),
        lambda: pytest.main(["tests", "-q", "-p", "no:cacheprovider"]))
    # imported only now, so that the traced run records its module lines
    import lrbench
    from lrbench.config import CONFIG_KEYS

    modules = [importlib.import_module(f"lrbench.{m.name}")
               for m in pkgutil.iter_modules(lrbench.__path__)]
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    print(f"{len(missed)} statements no test executed:", *missed, sep="\n")
    print(f"source lines: {lines}")
    print(f"lrbench.__all__: {len(lrbench.__all__)} names")
    print(f"module __all__ lists: "
          f"{sum(len(getattr(m, '__all__', [])) for m in modules)} names")
    print(f"config keys: {len(CONFIG_KEYS)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
