import functools
import sys
from collections import Counter
from importlib import import_module

import pytest

from ringline.correspondence import STRUCTURE
from ringline.projline import enumerate_line
from ringline.rings import ring_by_name


@pytest.fixture(scope="session")
def m2f2():
    return ring_by_name("m2f2")


@pytest.fixture(scope="session")
def m2f2_line(m2f2):
    return enumerate_line(m2f2)


@pytest.fixture(scope="session")
def gq():
    return STRUCTURE.gq


@pytest.fixture(scope="session")
def hyperplanes():
    return STRUCTURE.hyperplanes


@pytest.fixture(scope="session")
def spreads():
    return STRUCTURE.spreads


def counted_calls(monkeypatch, *keys: str) -> Counter:
    """Wrap each function (or class) named by its key, "module.function"
    where ``ringline.<module>`` defines it, wherever a ringline module binds
    it, until ``monkeypatch`` is undone; the Counter of their calls by key.
    The module is part of the key, as ``gf2`` and ``pauli`` each define a
    ``multiply``."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("ringline.")]
    for key in keys:
        module, name = key.split(".")
        real = getattr(import_module(f"ringline.{module}"), name)
        assert real.__module__ == f"ringline.{module}", f"{key} is defined in {real.__module__}"

        def counted(*args, _key=key, _real=real, **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is real:
                    monkeypatch.setattr(m, attr, counted)
    return calls


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*keys)`` is ``counted_calls`` for the rest of the test."""
    return functools.partial(counted_calls, monkeypatch)
