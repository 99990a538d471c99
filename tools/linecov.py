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

It is a gate: the exit status is non-zero when pytest fails, when an
unreached line lies outside the functions that ``ALLOWED`` names, or when
an ``ALLOWED`` function has no unreached line left.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parent.parent / "src" / "vsensor"

# (file under src/vsensor, function) -> why no line of it that is left
# unreached can run in the process that collects the trace
ALLOWED = {
    ("cli.py", "<module>"): "the __main__ call runs only when cli.py is the program",
    ("conformance.py", "_usable_cpus"): "the fallback for a platform without os.sched_getaffinity",
    ("conformance.py", "_set_forked_trial"): "runs only in a forked conformance worker",
    ("conformance.py", "_call_forked_trial"): "runs only in a forked conformance worker",
}


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line, mapped to the innermost function (or ``<module>``) it is in."""
    owners: dict[int, str] = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()  # a parent before the bodies nested in it, which then overwrite
        owners.update((line, code.co_name) for _, _, line in code.co_lines()
                      if line)  # None or 0: no source line
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return owners


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
    refused, unused = [], set(ALLOWED)
    for path in sorted(SRC.rglob("*.py")):
        owners = executable_lines(path)
        unreached = sorted(owners.keys() - reached[str(path)])
        total, missed = total + len(owners), missed + len(unreached)
        if unreached:
            print(f"{path.relative_to(SRC.parent.parent)}: {len(unreached)}: {ranges(unreached)}")
        for line in unreached:
            key = (path.relative_to(SRC).as_posix(), owners[line])
            unused.discard(key)
            if key not in ALLOWED:
                refused.append(f"{key[0]}:{line} in {key[1]}")
    print(f"unreached: {missed} of {total} executable lines")
    for file, function in sorted(ALLOWED.keys() - unused):
        print(f"allowed: {file} {function}: {ALLOWED[file, function]}")
    for where in refused:
        print(f"not allowed: {where} is unreached")
    for file, function in sorted(unused):
        print(f"stale allowance: {file} {function} has no unreached line")
    return int(status) or int(bool(refused or unused))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
