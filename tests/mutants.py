"""Always-pass mutation sweep over the checks of ``correspondence.py``.

Each ``CheckResult(`` call there whose ``passed`` argument is not a constant
False (the stage failures) is a site.  For each site, the sweep sets that
argument to True in a copy of the repository and runs tier-1 there with
``-x``.  A mutant that the suite passes survives: its check could always
pass and no test would notice.  Run from anywhere, stdlib only:

    python3 tests/mutants.py [FUNCTION ...]

Names limit the sweep to the sites inside those functions.  It prints each
survivor and exits 1 if any survives, 2 if the unchanged copy fails.  The
repository is only read: the copy is in a temporary directory.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path("src", "ringline", "correspondence.py")


def sites(tree, only):
    """(function, call, passed argument) for each site, in source order."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and (not only or node.name in only):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "CheckResult":
                    arg = call.args[1] if len(call.args) > 1 else next(k.value for k in call.keywords if k.arg == "passed")
                    if not (isinstance(arg, ast.Constant) and arg.value is False):
                        yield node.name, call, arg


def always_passing(source: bytes, arg) -> bytes:
    # ``source`` with ``arg`` replaced by True; ast offsets count UTF-8 bytes
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[: arg.lineno - 1])) + arg.col_offset
    end = sum(map(len, lines[: arg.end_lineno - 1])) + arg.end_col_offset
    return source[:start] + b"True" + source[end:]


def main(only: list[str]) -> int:
    source = (ROOT / SOURCE).read_bytes()
    tree = ast.parse(source)
    unknown = set(only) - {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    if unknown:
        sys.exit(f"no such function in {SOURCE}: {', '.join(sorted(unknown))}")
    found = list(sites(tree, set(only)))
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]

        def passes(text: bytes) -> bool:
            (copy / SOURCE).write_bytes(text)
            return subprocess.run(argv, cwd=copy, env=env, capture_output=True).returncode == 0

        if not passes(source):
            print("tier-1 fails on the unchanged copy; no mutant can be judged")
            return 2
        for name, call, arg in found:
            if passes(always_passing(source, arg)):
                survivors += 1
                print(f"survives: {name}, line {call.lineno}: {ast.get_source_segment(source.decode(), call.args[0])}")
    print(f"{len(found)} sites, {survivors} survive")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
