"""The package ships only what the package itself or the benchmark reaches.

Every public module-level function and class of `quivercover.*`, and every
public method or property of such a class, must be referenced in some
module of the package or of `bench/` other than `__init__.py` (whose
exports alone reach nothing).  The references are read off the syntax
tree: names, attributes, imported names and their aliases, and string
constants that are an identifier or a dotted path of identifiers, each
part of which counts.  A method or property counts only as an attribute or
as such a string, so a local variable that shares its name does not reach
it.  A name that only the tests use belongs in the tests."""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import quivercover

ROOT = Path(__file__).resolve().parent.parent
DOTTED_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def references(tree) -> tuple:
    """(names, attributes): Counters of the words that tree references as a
    name or imported name, and as an attribute or string constant."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names[node.asname] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED_PATH.fullmatch(node.value):
            attributes.update(node.value.split("."))
    return names, attributes


def test_every_public_name_is_reached_outside_the_tests():
    files = sorted((ROOT / "src" / "quivercover").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    names, attributes = Counter(), Counter()
    for path in files:
        if path.name != "__init__.py":
            found = references(ast.parse(path.read_text(encoding="utf-8")))
            names.update(found[0])
            attributes.update(found[1])
    unreached = []
    for info in pkgutil.iter_modules(quivercover.__path__):
        module = importlib.import_module(f"quivercover.{info.name}")
        for name, value in vars(module).items():
            public = not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
            if not public or value.__module__ != module.__name__:
                continue
            if not names[name] and not attributes[name]:
                unreached.append(f"{info.name}.{name}")
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    method = inspect.isfunction(member) or isinstance(member, property)
                    if method and not attr.startswith("_") and not attributes[attr]:
                        unreached.append(f"{info.name}.{name}.{attr}")
    assert unreached == []
