"""Every public function of the package's modules has a user: a call
somewhere in the package, or an import by the acceptance criteria, which are
the contract. A function that neither runs nor is promised is dead code, and
so is a private helper that nothing in the package calls. TEST_FACING names
the public functions that only the tests call: count_params and
loss_and_grads, the next-token pass that streamed training is checked
against."""

import ast
import inspect
import pathlib

import pytest

from gemma_mini import (
    attention, audit, distill, kvcache, memplan, model, panscan, presets, tensor, tokenizer, train,
)

PACKAGE = pathlib.Path(tensor.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).with_name("test_acceptance.py")
TEST_FACING = {"count_params", "loss_and_grads"}


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


@pytest.mark.parametrize("module", [tensor, attention, kvcache, model, train, distill, audit,
                                    memplan, panscan, presets, tokenizer],
                         ids=lambda m: m.__name__)
def test_every_public_function_is_called_or_in_the_contract(module):
    public = {name for name, obj in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == module.__name__}
    assert public  # the walk found the module's functions
    unused = public - called_in_package() - imported_by_acceptance() - TEST_FACING
    assert not unused, f"{module.__name__} functions nothing runs: {sorted(unused)}"


# distill has no private helper of its own: its loss is train's
@pytest.mark.parametrize("module", [tensor, attention, model, train, presets, panscan],
                         ids=lambda m: m.__name__)
def test_every_private_function_is_called_in_the_package(module):
    private = {name for name, obj in vars(module).items()
               if name.startswith("_") and inspect.isfunction(obj)
               and obj.__module__ == module.__name__}
    assert private  # the walk found the module's helpers
    unused = private - called_in_package()
    assert not unused, f"{module.__name__} helpers nothing calls: {sorted(unused)}"
