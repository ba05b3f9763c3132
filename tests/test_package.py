"""Static checks on the package source."""

import ast
import importlib
from pathlib import Path

import adiasim

PACKAGE_DIR = Path(adiasim.__file__).parent


def private_imports(path: Path) -> list[str]:
    """Underscore names that a module imports from another adiasim module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0 or (node.module or "").startswith("adiasim"):
            found += [f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
                      for alias in node.names
                      if alias.name.startswith("_") and alias.name != "__version__"]
    return found


def test_modules_import_no_private_names_from_each_other():
    """A private helper belongs to its module; a name another module needs is public."""
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in private_imports(path)] == []


def test_scan_sees_private_imports(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from ._version import __version__\n"
                      "from .analysis import _tracked_eigensystem, min_gap\n"
                      "from adiasim.dynamics import _W\n"
                      "from numpy import _private\n")
    assert private_imports(module) == [
        "mod.py:2 imports _tracked_eigensystem from analysis",
        "mod.py:3 imports _W from adiasim.dynamics",
    ]


def test_every_exported_name_exists():
    """Each name in a module's ``__all__`` resolves, so ``import *`` works."""
    modules = [adiasim] + [importlib.import_module(f"adiasim.{path.stem}")
                           for path in sorted(PACKAGE_DIR.glob("*.py"))
                           if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
