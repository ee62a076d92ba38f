"""Static check that the library ships no public code that only tests call.

Every public module-level function and class in src/batchselect must be
referenced by some other top-level statement of the package (a function,
class, or the CLI's `__main__` block).  A re-export from `__init__.py` is
not a use.  No module may import a name it never uses (a name listed in
`__all__` counts as used), and no module may import scipy, which only the
tests depend on.
Only `linalg` (`RidgeFit.predictions`) may apply `@` to an attribute named
`theta_hat`: every other module predicts through the fit.
`beta_coefficient` has one caller, `PessimisticPolicy`, so every class's
pessimism width follows one rule.
"""
import ast
from pathlib import Path

import batchselect

PACKAGE = Path(batchselect.__file__).resolve().parent


def _referenced(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced(package: Path) -> set[str]:
    """`module.name` of each public top-level def or class no other statement uses."""
    defined, uses = {}, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [s for s in tree.body if isinstance(s, (ast.FunctionDef, ast.ClassDef))]
        for stmt in defs:
            if not stmt.name.startswith("_"):
                defined[f"{path.stem}.{stmt.name}"] = stmt
        if path.name != "__init__.py":
            uses.extend((stmt, _referenced(stmt)) for stmt in tree.body)
    return {
        qual
        for qual, stmt in defined.items()
        if not any(other is not stmt and qual.split(".")[1] in names for other, names in uses)
    }


def unused_imports(package: Path) -> set[str]:
    """`module.name` of each name a module imports and never reads."""
    unused = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused.update(f"{path.stem}.{name}" for name in imported if name not in used)
    return unused


def theta_hat_products(package: Path) -> set[str]:
    """`module:line` of each `@` outside `linalg` with an operand `<expr>.theta_hat`."""
    found = set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) and any(
                isinstance(side, ast.Attribute) and side.attr == "theta_hat"
                for side in (node.left, node.right)
            ):
                found.add(f"{path.stem}:{node.lineno}")
    return found


def call_sites(package: Path, name: str) -> list[str]:
    """`module:line` of each call of `name`, bare or as an attribute, once per call."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return sorted(found)


def test_no_unreferenced_public_code():
    assert unreferenced(PACKAGE) == set(), "public code that no library module calls"


def test_no_unused_imports():
    assert unused_imports(PACKAGE) == set()


def test_no_module_imports_scipy():
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                importers.add(path.name)
    assert importers == set()


def test_detects_an_unused_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return used()\n"
    )
    assert unreferenced(tmp_path) == {"mod.unused"}


def test_detects_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n\nimport os.path\nimport numpy as np\n"
        "from math import pi, tau\nfrom .env import Dataset\n\n\n"
        "def area(r: float, d: Dataset) -> float:\n    return pi * np.square(r)\n"
    )
    (tmp_path / "__init__.py").write_text(
        "from .mod import area, pi\n\n__all__ = [\"area\"]\n"
    )
    assert unused_imports(tmp_path) == {"mod.os", "mod.tau", "__init__.pi"}


def test_predictions_only_in_linalg():
    assert theta_hat_products(PACKAGE) == set(), "predict through RidgeFit.predictions"


def test_detects_a_theta_hat_product(tmp_path):
    (tmp_path / "linalg.py").write_text("def predictions(self, x):\n    return x @ self.theta_hat\n")
    (tmp_path / "mod.py").write_text(
        "def values(phi, fit, theta_hat):\n"
        "    plain = phi @ theta_hat\n"
        "    return fit.theta_hat @ phi.T + (phi @ fit.theta_hat)\n"
    )
    assert theta_hat_products(tmp_path) == {"mod:3"}


def test_beta_has_one_call_site():
    sites = call_sites(PACKAGE, "beta_coefficient")
    assert len(sites) == 1 and sites[0].startswith("learner:"), "form beta in PessimisticPolicy"


def test_detects_call_sites(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from . import learner\nfrom .learner import beta_coefficient\n\n\n"
        "def widths(n, d):\n"
        "    alias = beta_coefficient\n"
        "    return beta_coefficient(n, d, 1.0, 0.05), learner.beta_coefficient(n, d, 0.0, 0.1)\n"
    )
    assert call_sites(tmp_path, "beta_coefficient") == ["mod:7", "mod:7"]
    (tmp_path / "other.py").write_text("x = beta_coefficient(\n    1, 1, 0.0, 0.05)\n")
    assert call_sites(tmp_path, "beta_coefficient") == ["mod:7", "mod:7", "other:1"]
