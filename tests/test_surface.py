"""The package ships only what the package itself or the benchmark reaches.

Every public module-level function and class of `quivercover.*`, and every
public method or property of such a class, must be named in some module of
the package or of `bench/`, outside its own `def` or `class` lines and
outside `__init__.py` (whose exports alone reach nothing).  A name that
only the tests use belongs in the tests."""

import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import quivercover

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_reached_outside_the_tests():
    files = sorted((ROOT / "src" / "quivercover").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in files if p.name != "__init__.py")
    words = Counter(re.findall(r"\w+", text))
    defined = Counter(re.findall(r"^[ \t]*(?:def|class)[ \t]+(\w+)", text, re.M))
    unreached = []
    for info in pkgutil.iter_modules(quivercover.__path__):
        module = importlib.import_module(f"quivercover.{info.name}")
        for name, value in vars(module).items():
            public = not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
            if not public or value.__module__ != module.__name__:
                continue
            if words[name] <= defined[name]:
                unreached.append(f"{info.name}.{name}")
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    method = inspect.isfunction(member) or isinstance(member, property)
                    if method and not attr.startswith("_") and words[attr] <= defined[attr]:
                        unreached.append(f"{info.name}.{name}.{attr}")
    assert unreached == []
