"""Every public function of the kernel modules has a user: a call somewhere
in the package, or an import by the acceptance criteria, which are the
contract. A kernel that neither runs nor is promised is dead code."""

import ast
import inspect
import pathlib

import pytest

from gemma_mini import attention, tensor

PACKAGE = pathlib.Path(tensor.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).with_name("test_acceptance.py")


def called_in_package() -> set:
    """Names called anywhere in the package, as f(...) or x.f(...)."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def imported_by_acceptance() -> set:
    tree = ast.parse(ACCEPTANCE.read_text())
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


@pytest.mark.parametrize("module", [tensor, attention], ids=lambda m: m.__name__)
def test_every_public_function_is_called_or_in_the_contract(module):
    public = {name for name, obj in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == module.__name__}
    assert public  # the walk found the module's functions
    unused = public - called_in_package() - imported_by_acceptance()
    assert not unused, f"{module.__name__} functions nothing runs: {sorted(unused)}"
