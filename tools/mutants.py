"""Comparison-mutation sweep: which flipped comparisons do the tests miss?

    python tools/mutants.py src/qilab/bell.py \\
        --functions sampled_chsh _rotated_for_measurement \\
        --tests tests/test_bell.py tests/test_golden.py

The repository is copied into a temporary directory; the working tree is
never written.  Each comparison operator in the named functions (in the
whole module when none are named) is flipped in turn: < and <=, > and >=,
== and !=, in and not in, is and is not.  The copy's module is rewritten
with ast.unparse and the test files run there with pytest -x.  A mutant
whose tests still pass survived, and is printed as module:line:column
(the column of the flipped operator's left operand) with the source of
its comparison.  An unmutated ast.unparse round trip runs first and must
pass; each mutant's test run then gets SLOWDOWN times the round trip's
time, and at least FLOOR seconds, and one that outlasts it, such as a
mutant that hangs, counts as killed.  Exit
status: 0 when every mutant was killed, 1 when one survived, 2 when the
round trip failed.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
}
ROUND_TRIP_TIMEOUT = 600.0  # seconds for the unmutated test run
# a mutant's test run may take SLOWDOWN times the unmutated one, and at
# least FLOOR seconds, before it counts as killed, so a mutant that hangs
# costs about a minute
SLOWDOWN, FLOOR = 10.0, 60.0
SKIP = shutil.ignore_patterns(".git", ".perfbench_runs", "__pycache__", ".pytest_cache",
                              "*.egg-info")


def sites(tree: ast.Module, functions: list[str]):
    """(scope name, Compare node, operator index) of each comparison, in source order.

    The scope name is the dotted path of the enclosing classes and
    functions, such as Circuit.digest, or <module> at the top level.  With
    `functions`, only comparisons inside a function of one of those names
    are listed.
    """
    found, seen = [], set()

    def visit(node, path, inside):
        for child in ast.iter_child_nodes(node):
            child_path, child_inside = path, inside
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                child_path = path + (child.name,)
                if not isinstance(child, ast.ClassDef) and child.name in functions:
                    child_inside = True
                    seen.add(child.name)
            if isinstance(child, ast.Compare) and (inside or not functions):
                found.extend((".".join(path) or "<module>", child, i)
                             for i in range(len(child.ops)))
            visit(child, child_path, child_inside)

    visit(tree, (), False)
    missing = set(functions) - seen
    if missing:
        sys.exit(f"mutants: no function named {', '.join(sorted(missing))}")
    return sorted(found, key=lambda s: (s[1].lineno, s[1].col_offset, s[2]))


def run_tests(copy: Path, tests: list[str], timeout: float) -> bool:
    """True when the test files pass in `copy` within `timeout` seconds."""
    # no bytecode: a mutant of the same size and mtime could reuse a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="source file to mutate, relative to the repository root")
    parser.add_argument("--functions", nargs="*", default=[],
                        help="mutate only inside these functions (default: the whole module)")
    parser.add_argument("--tests", nargs="+", required=True,
                        help="test files or node ids, run with pytest -x")
    args = parser.parse_args(argv)

    module = Path(args.module).resolve().relative_to(ROOT)
    source = (ROOT / module).read_text()
    tree = ast.parse(source)
    todo = sites(tree, args.functions)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / module
        target.write_text(ast.unparse(tree) + "\n")
        start = time.perf_counter()
        if not run_tests(copy, args.tests, ROUND_TRIP_TIMEOUT):
            print("mutants: the unmutated ast.unparse round trip fails its tests")
            return 2
        timeout = max(SLOWDOWN * (time.perf_counter() - start), FLOOR)
        survivors = []
        for name, node, i in todo:
            op = node.ops[i]
            node.ops[i] = FLIP[type(op)]()
            target.write_text(ast.unparse(tree) + "\n")
            node.ops[i] = op
            flip = f"{SYMBOL[type(op)]} -> {SYMBOL[FLIP[type(op)]]}"
            if run_tests(copy, args.tests, timeout):
                left = node.left if i == 0 else node.comparators[i - 1]
                text = " ".join(ast.get_source_segment(source, node).split())
                survivors.append(f"{module}:{left.lineno}:{left.col_offset + 1} [{name}] "
                                 f"{flip}: {text}")

    print(f"{len(todo)} comparison sites, {len(todo) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    for line in survivors:
        print("survived", line)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
