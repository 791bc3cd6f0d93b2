"""List the statements of each ``src/gradualmech`` module that a pytest
selection never executes.

Usage, from any directory::

    python tests/line_coverage.py                      # all of tests/
    python tests/line_coverage.py tests/test_transforms.py -k merge

The arguments, if any, are passed to pytest in place of ``tests``.  The run
is traced with ``sys.settrace``, which reports every line the package
executes, and takes several times as long as the plain run.

A statement is a simple statement, or the header of a compound one (``if``,
``for``, ``def``, ``except`` ...): the lines before its body.  It counts as
executed when any of those lines is.  Statements that compile to no code
(``else:``, ``try:``, docstrings) are never listed.

``test_recursive_walks_leave_no_cyclic_garbage`` is deselected: the
tracer's frame references keep cycles alive that the test expects
reference counting to free, so it fails under any line tracer.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gradualmech"
DESELECTED = "tests/test_fileformat_cli.py::test_recursive_walks_leave_no_cyclic_garbage"


def code_lines(source, filename):
    """Every line number that some instruction of the module starts on."""
    lines = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statements(tree):
    """(first line, lines of the statement or header) for each statement."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield first, range(first, max(first, last) + 1)


def missed(path, hit):
    """The statements of ``path`` that hold code and that no hit line covers,
    as (line, source text) pairs in line order."""
    source = path.read_text()
    code = code_lines(source, str(path))
    text = source.splitlines()
    out = []
    for first, lines in statements(ast.parse(source)):
        if code.isdisjoint(lines) or not hit.isdisjoint(lines):
            continue
        out.append((first, text[first - 1].strip()))
    return sorted(set(out))


def main(argv):
    import pytest

    # The package under ``src``, for this process and for the CLI
    # subprocesses some tests start.
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    files = {str(p): p for p in SRC.glob("*.py")}
    hit = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in hit:
            hit[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    args = (argv or [str(ROOT / "tests")]) + [
        "-q", "-p", "no:cacheprovider", "--deselect", DESELECTED]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print(f"\npytest {' '.join(args)}: exit {status}")
    print(f"deselected {DESELECTED}: the tracer keeps the cycles it checks for alive")
    total = 0
    for name, path in sorted(files.items()):
        gaps = missed(path, hit[name])
        total += len(gaps)
        print(f"\n{path.name}: {len(gaps)} statements never executed")
        for line, text in gaps:
            print(f"  {line:5d}  {text}")
    print(f"\ntotal: {total} statements never executed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
