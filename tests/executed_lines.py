"""Which lines of ``src/hcl`` the tier-1 suite runs.

    python tests/executed_lines.py [PYTEST_ARGS...]

Runs ``pytest -q --continue-on-collection-errors`` from the repository root
(over the ``tests`` directory unless PYTEST_ARGS name other paths) in this
process, under a line tracer set with ``sys.settrace`` and
``threading.settrace`` that records only the files of ``src/hcl``. A
module's executable lines are those its compiled code objects list
(``co_lines``, through every nested code object). Prints, per module, its
executable line count and the lines the suite never ran, then the totals,
and exits with pytest's exit code. Code that runs in a subprocess (the
CLI's ``python -m hcl.cli`` tests) is not traced, so ``cli.py``'s last
line, ``sys.exit(main())``, which runs only under ``python -m``, is always
listed as never run. Only the standard library and pytest are needed; this
is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "hcl")


def executable_lines(path: str) -> set[int]:
    """The line numbers of every instruction of the module at ``path``."""
    with open(path, encoding="utf-8") as f:
        todo = [compile(f.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args: list[str], files: list[str]) -> tuple[int, dict]:
    """pytest with ``args``, and the lines of ``files`` it ran."""
    ran = {path: set() for path in files}

    def on_call(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.dirname(PACKAGE))  # import hcl from here
    files = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                   if name.endswith(".py"))
    code, ran = run_traced(sys.argv[1:], files)
    total = never_total = 0
    for path in files:
        lines = executable_lines(path)
        never = sorted(lines - ran[path])
        total += len(lines)
        never_total += len(never)
        print(f"{os.path.relpath(path, ROOT)}: {len(lines)} executable, "
              f"{len(never)} never run: {', '.join(map(str, never)) or '-'}")
    print(f"total: {total} executable, {total - never_total} run, "
          f"{never_total} never run")
    return code


if __name__ == "__main__":
    sys.exit(main())
