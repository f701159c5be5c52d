"""Comparison-mutation sweep: which flipped comparisons do the tests miss?

    python tools/mutants.py src/qilab/bell.py \\
        --functions sampled_chsh _rotated_for_measurement \\
        --tests tests/test_bell.py tests/test_golden.py

The repository is copied into a temporary directory; the working tree is
never written.  Each comparison operator in the named functions (in the
whole module when none are named) is flipped in turn: < and <=, > and >=,
== and !=, in and not in, is and is not.  The copy's module is rewritten
with ast.unparse and the test files run there with pytest -x.  A mutant
whose tests still pass survived, and is printed with its line.  An
unmutated ast.unparse round trip runs first and must pass.  A test run
that outlasts TIMEOUT seconds counts as killed.  Exit status: 0 when every
mutant was killed, 1 when one survived, 2 when the round trip failed.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
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
TIMEOUT = 600.0  # seconds for one test run; guards against a mutant that never ends
SKIP = shutil.ignore_patterns(".git", ".perfbench_runs", "__pycache__", ".pytest_cache",
                              "*.egg-info")


def sites(tree: ast.Module, functions: list[str]):
    """(scope name, Compare node, operator index) of each comparison, in source order."""
    if functions:
        scopes = [n for n in ast.walk(tree)
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in functions]
        missing = set(functions) - {s.name for s in scopes}
        if missing:
            sys.exit(f"mutants: no function named {', '.join(sorted(missing))}")
    else:
        scopes = [tree]
    found = {}
    for scope in scopes:
        name = getattr(scope, "name", "<module>")
        for node in ast.walk(scope):
            if isinstance(node, ast.Compare):
                for i in range(len(node.ops)):
                    found.setdefault((id(node), i), (name, node, i))
    return sorted(found.values(), key=lambda s: (s[1].lineno, s[1].col_offset, s[2]))


def run_tests(copy: Path, tests: list[str]) -> bool:
    """True when the test files pass in `copy`; a timeout counts as a failure."""
    # no bytecode: a mutant of the same size and mtime could reuse a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, timeout=TIMEOUT,
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
    lines = source.splitlines()
    todo = sites(tree, args.functions)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / module
        target.write_text(ast.unparse(tree) + "\n")
        if not run_tests(copy, args.tests):
            print("mutants: the unmutated ast.unparse round trip fails its tests")
            return 2
        survivors = []
        for name, node, i in todo:
            op = node.ops[i]
            node.ops[i] = FLIP[type(op)]()
            target.write_text(ast.unparse(tree) + "\n")
            node.ops[i] = op
            flip = f"{SYMBOL[type(op)]} -> {SYMBOL[FLIP[type(op)]]}"
            if run_tests(copy, args.tests):
                survivors.append(f"{module}:{node.lineno} [{name}] {flip}: "
                                 f"{lines[node.lineno - 1].strip()}")

    print(f"{len(todo)} comparison sites, {len(todo) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    for line in survivors:
        print("survived", line)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
