"""Line coverage gate: every executable line of the library is run by the
Tier-1 tests, or is listed, with a reason, in ``line_coverage_allow.txt``.

Run from the repository root:

    python tests/line_coverage.py

It runs the Tier-1 tests in this process under ``sys.settrace``, which
records line events only in frames whose code lies in ``src/ckstab``.  The
executable lines of each library module are the lines of the instructions
of its code objects, module, class bodies, functions and comprehensions,
as ``co_lines()`` gives them.  The script exits 1 when a test fails, when
an executable line that no test runs is not allowed, or when an allowed
line no longer exists unrun, and lists each; otherwise it exits 0.  The
library must not be imported before the trace starts, so that its module
bodies are traced too.  Code that the tests run in a subprocess (the demos,
a few CLI checks) is not seen.

The allowlist keys each line by the module's file name and the line's
stripped source text, not by its number, so edits elsewhere in a module do
not move an entry; an entry listed k times allows k unrun lines of that
text.  A ``reason:`` line gives the reason for the entries that follow it,
up to the next ``reason:`` line; an entry is ``<file>: <stripped source>``.
Blank lines and lines starting with ``#`` are skipped.
"""

from __future__ import annotations

import pathlib
import sys
import types
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ckstab"
ALLOW = pathlib.Path(__file__).resolve().parent / "line_coverage_allow.txt"


def executable_lines(path: pathlib.Path) -> set[int]:
    """The line of every instruction of every code object in the module."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        # line 0 (or None) marks an instruction of no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def read_allowlist(path: pathlib.Path) -> Counter:
    """The number of entries of each (file name, stripped source)."""
    allowed, reason = Counter(), None
    for n, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("reason:"):
            reason = line[len("reason:"):].strip()
            continue
        name, sep, text = line.partition(": ")
        if not sep or not reason:
            raise SystemExit(f"{path.name}:{n}: an entry needs a file name, "
                             f"source text and a reason above it: {raw!r}")
        allowed[name, text.strip()] += 1
    return allowed


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The pytest exit code of the tests, and the lines run in each library
    file, by absolute path."""
    files = {str(p): set() for p in SRC.glob("*.py")}

    def tracer(frame, event, arg):
        lines = files.get(frame.f_code.co_filename)
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    import pytest
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), files


def main(argv: list[str]) -> int:
    if any(name == "ckstab" or name.startswith("ckstab.")
           for name in sys.modules):
        raise SystemExit("ckstab was imported before the trace started")
    code, run = run_traced(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors",
                            str(ROOT / "tests"), *argv])
    allowed = read_allowlist(ALLOW)
    used = Counter()
    missed = []
    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines - run[str(path)]):
            unrun += 1
            key = (path.name, source[n - 1].strip())
            if used[key] < allowed[key]:
                used[key] += 1
            else:
                missed.append(f"{path.name}:{n}: {key[1]}")
    stale = [f"{name}: {text}" for (name, text), n in allowed.items()
             if used[name, text] < n]
    print(f"line coverage: {total - unrun} of {total} executable lines run; "
          f"{unrun - len(missed)} unrun lines allowed, {len(missed)} not")
    for line in missed:
        print(f"unrun and not allowed: {line}")
    for line in stale:
        print(f"allowed but not found unrun: {line}")
    if code != 0:
        print(f"the tests did not all pass (pytest exit code {code})")
    return 1 if code != 0 or missed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
