"""Cold imports: each command loads only the layers it calls.

Every case runs in a fresh interpreter, since the test process has long
since loaded every layer.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ringline

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Prints the sorted ringline modules loaded after running BODY, whose own
# output is swallowed.
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
{body}
print(json.dumps(sorted(m for m in sys.modules if m == "ringline" or m.startswith("ringline."))))
"""


def loaded_after(body: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = PROBE.format(body="\n".join("    " + line for line in body.splitlines()))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("ringline.") for name in json.loads(done.stdout)}


def loaded_by_command(argv: list[str]) -> set[str]:
    return loaded_after(f"from ringline.cli import main\nmain({argv!r})")


def test_import_ringline_loads_no_layer():
    assert loaded_after("import ringline") == {"ringline"}


def test_import_cli_loads_no_layer():
    assert loaded_after("import ringline.cli") == {"ringline", "cli"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        pytest.param(argv, extra, id=" ".join(argv))
        for argv, extra in (
            (["verify", "all", "--format", "csv"], set()),
            (["gq", "petersen", "--ovoid", "9"], {"golden"}),
            (["pauli", "mub", "--spread", "9"], {"golden"}),
            (["export", "--what", "hyperplanes", "--format", "json", "--out", "missing/x.json"], set()),
        )
    ],
)
def test_usage_errors_load_no_layer(argv, extra):
    assert loaded_by_command(argv) == {"ringline", "cli"} | extra


def test_ring_show_loads_rings_only():
    assert loaded_by_command(["ring", "show", "m2f2"]) == {"ringline", "cli", "rings", "gf2"}


def test_line_relations_loads_no_quadrangle_side():
    assert loaded_by_command(["line", "relations", "--ring", "gf4"]) == {
        "ringline", "cli", "rings", "gf2", "projline", "export",
    }


def test_export_line_loads_no_quadrangle_side(tmp_path):
    out = tmp_path / "line.csv"
    argv = ["export", "--what", "line", "--format", "csv", "--out", str(out)]
    assert loaded_by_command(argv) == {"ringline", "cli", "rings", "gf2", "projline", "export"}
    assert out.read_text().startswith("id,a,b,orbit")


def test_every_public_name_is_its_defining_modules_object():
    for name in ringline.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"ringline.{ringline._HOME[name]}")
        obj = getattr(ringline, name)
        assert obj is getattr(home, name), name
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name
    namespace: dict = {}
    exec("from ringline import *", namespace)
    assert set(ringline.__all__) <= set(namespace)
    assert set(ringline.__all__) <= set(dir(ringline))
    with pytest.raises(AttributeError):
        ringline.no_such_name
