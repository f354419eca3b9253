"""Each public name is declared once, in its module's ``__all__``; the package exports their union."""

import importlib
from collections import Counter

import genharm

MODULES = [importlib.import_module(f"genharm.{name}")
           for name in ("basis", "decompose", "errors", "signals", "spectrum")]


def test_every_listed_name_is_defined_in_its_own_module():
    # a constant carries no __module__, so only its presence is checked
    misplaced = [f"{module.__name__}.{name}" for module in MODULES for name in module.__all__
                 if getattr(getattr(module, name), "__module__", module.__name__) != module.__name__]
    assert misplaced == []


def test_no_name_is_listed_by_two_modules():
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_the_package_exports_the_union_of_the_module_lists_once():
    assert len(genharm.__all__) == len(set(genharm.__all__))
    assert set(genharm.__all__) == {name for module in MODULES for name in module.__all__}


def test_a_star_import_binds_each_name_to_its_module_object():
    namespace = {}
    exec("from genharm import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(genharm.__all__)
    owner = {name: module for module in MODULES for name in module.__all__}
    assert [name for name, value in namespace.items() if value is not getattr(owner[name], name)] == []
