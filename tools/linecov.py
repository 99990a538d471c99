r"""Line coverage of ``src/vsensor`` under a pytest run, standard library only.

    PYTHONPATH=src python tools/linecov.py [pytest arguments]

The unreached-line figures that ROADMAP.md and CHANGES.md quote come from
tier-1 less acceptance criteria 4 and 6 (full conformance runs, slow under
tracing) and ``tests/test_scaling.py`` (timing bounds):

    PYTHONPATH=src python tools/linecov.py -q tests \
        --deselect tests/test_acceptance.py::test_criterion_4_conformance \
        --deselect tests/test_acceptance.py::test_criterion_6_datasheet_toolchain \
        --ignore=tests/test_scaling.py

Runs pytest in this process with ``sys.settrace`` installed, then prints,
for each file under ``src/vsensor``, the executable lines that never ran,
and the total.  A line is executable when the compiler gives it bytecode
(``co_lines`` of the module and of every function and class body in it).

It does not follow forked conformance workers: a line that runs only in a
worker process counts as unreached.  Tracing slows every traced line, so
timing-bound tests such as ``tests/test_scaling.py`` may fail under it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parent.parent / "src" / "vsensor"


def executable_lines(path: Path) -> set[int]:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


def ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``1-3, 7``."""
    out: list[list[int]] = []
    for n in lines:
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(SRC) + "/"
    reached: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached[frame.f_code.co_filename].add(frame.f_code.co_firstlineno)
        return local

    sys.settrace(call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
    total = missed = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - reached[str(path)])
        total, missed = total + len(lines), missed + len(unreached)
        if unreached:
            print(f"{path.relative_to(SRC.parent.parent)}: {len(unreached)}: {ranges(unreached)}")
    print(f"unreached: {missed} of {total} executable lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
