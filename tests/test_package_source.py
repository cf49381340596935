"""Checks on the package's source text.

The package reads no environment variable: every setting is a config key, a
flag or a module constant, so the same command and input files give the
same run in any shell. And only uqsim.oracle decomposes a Hamiltonian."""
import ast
import re
from pathlib import Path

import uqsim


def test_the_package_reads_no_environment_variable():
    hits = [f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(Path(uqsim.__file__).parent.rglob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if re.search(r"os\.environ|getenv", line)]
    assert hits == []


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def eigensolver_sites(path: Path) -> set[str]:
    """The qualified names of the functions in `path` that name a numpy
    eigensolver (np.linalg.eigh and its kin); docstrings do not count."""
    sites = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS \
                or isinstance(node, ast.Name) and node.id in EIGENSOLVERS:
            sites.add(f"{path.stem}.{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def test_only_the_oracle_and_the_compilers_three_by_three_rule_decompose():
    # every spectrum of a Hamiltonian goes through oracle._spectrum; the
    # compiler's 3x3 coefficient matrices have their own eigenvalues
    sites = set().union(*(eigensolver_sites(path)
                          for path in sorted(Path(uqsim.__file__).parent.rglob("*.py"))))
    assert sites == {"oracle._spectrum", "pauli.CoeffMatrix.eigenvalues"}
