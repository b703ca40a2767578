"""Cold imports: each command loads only the layers it calls.

Every case runs in a fresh interpreter, since the test process has long
since loaded every layer.  The value types are NamedTuples, not
dataclasses, so that no command imports ``dataclasses`` and what it pulls
in; the last tests pin the value semantics callers rely on.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ringline
from ring_docs import ring_from_json_dict
from ringline import cli
from ringline.correspondence import (
    STRUCTURE,
    CheckResult,
    Report,
    line_table,
    standard_square,
)
from ringline.pauli import PauliOp, PhasedPauli
from ringline.projline import enumerate_line
from ringline.quadrangle import petersen_graph
from ringline.rings import ring_by_name, ring_to_json_dict

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
GF2_LINE = enumerate_line(ring_by_name("gf2"))

# Prints the sorted modules loaded after running BODY, whose own output is
# swallowed; json is imported only once the list is taken.
PROBE = """
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
{body}
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""

# Code-introspection modules that ``dataclasses`` imports and no command needs.
INTROSPECTION = {"dataclasses", "inspect", "dis", "tokenize"}


def modules_after(body: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = PROBE.format(body="\n".join("    " + line for line in body.splitlines()))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def loaded_after(body: str) -> set[str]:
    """The ringline modules loaded after running BODY, prefix dropped."""
    return {
        name.removeprefix("ringline.")
        for name in modules_after(body)
        if name == "ringline" or name.startswith("ringline.")
    }


def command_body(argv: list[str]) -> str:
    return f"from ringline.cli import main\nmain({argv!r})"


def loaded_by_command(argv: list[str]) -> set[str]:
    return loaded_after(command_body(argv))


def test_import_ringline_loads_no_layer():
    assert loaded_after("import ringline") == {"ringline"}


def test_import_cli_loads_no_layer():
    modules = modules_after("import ringline.cli")
    assert {m for m in modules if m.startswith("ringline")} == {"ringline", "ringline.cli"}
    assert "json" not in modules


@pytest.mark.parametrize(
    "argv, extra",
    [
        pytest.param(argv, extra, id=" ".join(argv))
        for argv, extra in (
            (["verify", "all", "--format", "csv"], set()),
            (["gq", "petersen", "--ovoid", "9"], {"cli_gq", "golden"}),
            (["pauli", "mub", "--spread", "9"], {"cli_pauli", "golden"}),
            (
                ["export", "--what", "hyperplanes", "--format", "json", "--out", "missing/x.json"],
                {"cli_export"},
            ),
        )
    ],
)
def test_usage_errors_load_no_layer(argv, extra):
    assert loaded_by_command(argv) == {"ringline", "cli"} | extra


def test_ring_show_loads_rings_only():
    assert loaded_by_command(["ring", "show", "m2f2"]) == {
        "ringline", "cli", "cli_ring", "rings", "gf2",
    }


@pytest.mark.parametrize(
    "argv", [["verify", "all"], ["pauli", "mub"], ["ring", "show", "gf4"]], ids=" ".join
)
def test_commands_load_no_introspection_modules(argv):
    assert not modules_after(command_body(argv)) & INTROSPECTION


def test_verify_all_loads_no_export():
    assert loaded_by_command(["verify", "all"]) == {
        "ringline", "cli", "cli_verify", "rings", "gf2", "golden", "projline", "pauli",
        "quadrangle", "correspondence",
    }


def test_line_relations_loads_no_quadrangle_side():
    assert loaded_by_command(["line", "relations", "--ring", "gf4"]) == {
        "ringline", "cli", "cli_line", "rings", "gf2", "projline",
    }


def test_export_line_loads_no_quadrangle_side(tmp_path):
    out = tmp_path / "line.csv"
    argv = ["export", "--what", "line", "--format", "csv", "--out", str(out)]
    assert loaded_by_command(argv) == {
        "ringline", "cli", "cli_export", "cli_line", "rings", "gf2", "projline", "export",
    }
    assert out.read_text().startswith("id,a,b,orbit")


def renderer_modules(modules: set[str]) -> set[str]:
    """The command-group modules among MODULES, prefix dropped."""
    return {m.removeprefix("ringline.") for m in modules if m.startswith("ringline.cli_")}


# arguments that make a command cheap to run cold
CHEAP_ARGS = {"ring": ["gf2"], "line": ["--ring", "gf2"], "verify": ["table2"]}


@pytest.mark.parametrize(
    "group, verb",
    [
        pytest.param(*key, id=" ".join(filter(None, key)))
        for key in cli.COMMANDS
        if key[0] != "export"
    ],
)
def test_command_loads_only_its_renderer_module(group, verb):
    argv = [group, *filter(None, [verb]), *CHEAP_ARGS.get(group, [])]
    modules = modules_after(command_body(argv))
    assert renderer_modules(modules) == {f"cli_{group}"}
    assert not {"json", "csv", "ringline.export"} & modules  # text output


@pytest.mark.parametrize(
    "what, fmt", [pytest.param(*key, id=" ".join(key)) for key in cli.EXPORTS]
)
def test_export_loads_only_its_renderer_modules(what, fmt, tmp_path):
    out = tmp_path / f"out.{fmt}"
    argv = ["export", "--what", what, "--format", fmt, "--out", str(out), "--ring", "gf2"]
    modules = modules_after(command_body(argv))
    home = cli.EXPORTS[what, fmt].partition(".")[0]
    assert renderer_modules(modules) == {"cli_export", home}
    assert ("json" in modules) == (fmt == "json")
    assert out.read_text()


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize(
    "argv", [["line", "enumerate"], ["line", "relations"], ["pauli", "table"]], ids=" ".join
)
def test_only_csv_output_loads_export(argv, fmt):
    """``export``, and with it ``csv``, load only for a format written
    through them."""
    args = [*argv, "--format", fmt, *CHEAP_ARGS.get(argv[0], [])]
    modules = modules_after(command_body(args))
    assert ("ringline.export" in modules) == ("csv" in modules) == (fmt == "csv")


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


@pytest.mark.parametrize(
    "make, field",
    [
        pytest.param(lambda: ring_by_name("gf2"), "order", id="Ring"),
        pytest.param(lambda: GF2_LINE.points[0], "canonical", id="PointClass"),
        pytest.param(lambda: GF2_LINE, "points", id="ProjectiveLine"),
        pytest.param(lambda: PauliOp(1), "code", id="PauliOp"),
        pytest.param(lambda: PhasedPauli(0, None), "phase_k", id="PhasedPauli"),
        pytest.param(lambda: standard_square(STRUCTURE, line_table(STRUCTURE)), "row_signs", id="MerminResult"),
        pytest.param(petersen_graph, "edges", id="Graph"),
        pytest.param(lambda: STRUCTURE.gq, "lines", id="IncidenceStructure"),
        pytest.param(lambda: STRUCTURE.hyperplanes[0], "kind", id="Hyperplane"),
        pytest.param(lambda: CheckResult("c", True), "passed", id="CheckResult"),
        pytest.param(lambda: Report("r"), "checks", id="Report"),
    ],
)
def test_value_type_fields_are_read_only(make, field):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_report_default_data_is_read_only():
    with pytest.raises(TypeError):
        Report("r").data["key"] = 1
    assert Report("r").data == {}


def test_phased_pauli_phase_is_reduced_mod_4():
    op = PauliOp(5)
    assert PhasedPauli(5, op).phase_k == 1
    assert PhasedPauli(-1, op) == PhasedPauli(3, op)


def test_pauli_ops_sort_by_code():
    assert [op.code for op in sorted(PauliOp(c) for c in (9, 2, 15, 1))] == [1, 2, 9, 15]


def test_equal_rings_hash_equal_and_share_cached_results():
    ring = ring_by_name("gf4")
    copy = ring_from_json_dict(ring_to_json_dict(ring))
    assert copy is not ring and copy == ring and hash(copy) == hash(ring)
    assert enumerate_line(copy) is enumerate_line(ring)
