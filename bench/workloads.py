"""Operation mixes for the CLI workloads, and the output checks of every op.

An operation is one ``ringline`` command line with the exit code it must
give and a check of what it printed.  A check returns ``None`` when the
output is right and a short reason otherwise; the runner also counts a check
that raises as a failed operation, so a bad output never stops the run.

``certify`` runs the verification certificate the paper rests on.
``explore`` runs every other README command with parameters drawn from the
seed.  One round of a mix holds each operation once; the runner shuffles
the order of every round with the same seeded generator.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RINGS = ("m2f2", "gf2", "gf4", "gf2xgf2", "gf2dual")
TALLY = re.compile(r"checks: (\d+)  failed: (\d+)  result: (PASS|FAIL)")

Check = Callable[[bytes, bytes, bytes], "str | None"]


@dataclass(frozen=True)
class Op:
    """One command line: ``argv`` after the program name."""

    argv: tuple[str, ...]
    exit_code: int
    check: Check
    out_file: Path | None = None  # written by export commands

    @property
    def command(self) -> tuple[str, str]:
        """The subcommand, such as ("verify", "all") or ("export", "")."""
        verb = self.argv[1] if len(self.argv) > 1 and not self.argv[1].startswith("-") else ""
        return self.argv[0], verb


# ---------------------------------------------------------------------------
# checks: (stdout, stderr, exported file) -> None or reason


def _json(stdout: bytes):
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return None, f"stdout is not JSON: {e}"
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        return None, "JSON document lacks \"schema\": 1"
    return doc, None


def _count_checks(doc: dict) -> int:
    return len(doc.get("checks", ())) + sum(_count_checks(r) for r in doc.get("subreports", ()))


def tally_text(text: str, min_checks: int = 1) -> str | None:
    """A certificate's last line must read ``checks: N  failed: 0  result: PASS``."""
    lines = text.rstrip("\n").splitlines()
    m = TALLY.fullmatch(lines[-1]) if lines else None
    if m is None:
        return "no tally line at the end of the certificate"
    if m.group(2) != "0" or m.group(3) != "PASS":
        return f"certificate reports {lines[-1]!r}"
    if int(m.group(1)) < min_checks:
        return f"only {m.group(1)} checks, expected at least {min_checks}"
    return None


def report_json(stdout: bytes, min_checks: int = 1) -> str | None:
    """A report document must carry ``"schema": 1`` and ``"passed": true``."""
    doc, why = _json(stdout)
    if why:
        return why
    if doc.get("passed") is not True:
        return "report does not pass"
    if _count_checks(doc) < min_checks:
        return f"only {_count_checks(doc)} checks, expected at least {min_checks}"
    return None


def _certificate(fmt: str, min_checks: int = 1) -> Check:
    if fmt == "json":
        return lambda out, err, f: report_json(out, min_checks)
    return lambda out, err, f: tally_text(out.decode(), min_checks)


def _all_spreads_pass(out: bytes, err: bytes, f: bytes) -> str | None:
    lines = out.decode().splitlines()
    if len(lines) != 6 or not all(line.startswith("PASS ") for line in lines):
        return "expected six PASS lines, one per spread"
    return None


def _usage_error(out: bytes, err: bytes, f: bytes) -> str | None:
    if out:
        return "usage error wrote to stdout"
    if not err.strip():
        return "usage error left stderr empty"
    return None


def _some_output(fmt: str, must_contain: str = "", json_test=None) -> Check:
    def check(out: bytes, err: bytes, f: bytes) -> str | None:
        if fmt == "json":
            doc, why = _json(out)
            if why:
                return why
            if json_test is not None and not json_test(doc):
                return "JSON content check failed"
            return None
        text = out.decode()
        if not text.strip():
            return "empty stdout"
        if must_contain and must_contain not in text:
            return f"stdout lacks {must_contain!r}"
        return None

    return check


def _exported(fmt: str) -> Check:
    def check(out: bytes, err: bytes, f: bytes) -> str | None:
        if out:
            return "export wrote to stdout"
        if not f:
            return "export file missing or empty"
        if fmt == "json":
            return _json(f)[1]
        if fmt == "dot" and not (f.startswith(b"graph ") and f.endswith(b"}\n")):
            return "not a DOT graph"
        if fmt == "csv" and b"," not in f.split(b"\n", 1)[0]:
            return "no CSV header"
        return None

    return check


def _flipped_cells(i: int, j: int, fmt: str) -> Check:
    cells = (f"C{i + 1},C{j + 1}:", f"C{j + 1},C{i + 1}:")

    def check(out: bytes, err: bytes, f: bytes) -> str | None:
        if fmt == "json":
            doc, why = _json(out)
            if why:
                return why
            if doc.get("passed") is not False:
                return "mutated fixture passed"
            named = " ".join(doc.get("data", {}).get("diffs", ()))
        else:
            named = out.decode()
            if tally_text(named) is None:
                return "mutated fixture passed"
        missing = [c for c in cells if c not in named]
        return f"diff does not name {missing}" if missing else None

    return check


# ---------------------------------------------------------------------------
# mixes


def certify_ops() -> list[Op]:
    """The verify family; the seed only shuffles its order."""
    return [
        Op(("verify", "all"), 0, _certificate("text", 100)),
        Op(("verify", "all", "--format", "json"), 0, _certificate("json", 100)),
        Op(("verify", "trinity"), 0, _certificate("text")),
        Op(("pauli", "mub"), 0, _all_spreads_pass),
        Op(("verify", "all", "--format", "csv"), 2, _usage_error),
    ]


def mutated_fixture(signs: list[str], i: int, j: int) -> str:
    """Fixture text: the sign matrix with cells (i, j) and (j, i) flipped."""
    rows = [list(r) for r in signs]
    for a, b in ((i, j), (j, i)):
        rows[a][b] = "+" if rows[a][b] == "-" else "-"
    return "# one symmetric cell pair flipped\n" + "".join("".join(r) + "\n" for r in rows)


def explore_ops(rng: random.Random, tmp: Path, fixture: Path, flipped: tuple[int, int]) -> list[Op]:
    """Every other README command, parameters drawn from ``rng``."""
    ops: list[Op] = []

    def add(argv, exit_code=0, check=None, fmt=None, contains="", json_test=None):
        if fmt is not None:
            argv = (*argv, "--format", fmt)
        if check is None:
            check = _some_output(fmt or "text", contains, json_test)
        ops.append(Op(tuple(argv), exit_code, check))

    pick = rng.choice
    for ring in RINGS:
        add(("ring", "show", ring), fmt=pick(("text", "json", "csv")))
        fmt = pick(("text", "json"))
        add(("ring", "validate", ring), fmt=fmt, contains="all axioms hold",
            json_test=lambda d: d.get("problems") == [])
        add(("line", "enumerate", "--ring", ring), fmt=pick(("text", "json", "csv")))
        fmt = pick(("text", "json", "csv", "dot"))
        edge = ("--edge-sign", pick("+-")) if fmt == "dot" else ()
        add(("line", "relations", "--ring", ring, *edge), fmt=fmt)
        base = pick((("--u", "1,0", "--v", "0,1"), ("--u", "0,1", "--v", "1,0")))
        add(("line", "subconfig", "--ring", ring, *base), fmt=pick(("text", "json")))

    for verb in ("build", "ovoids", "spreads", "hyperplanes"):
        add(("gq", verb), fmt=pick(("text", "json")))
    add(("gq", "axioms"), fmt=pick(("text", "json")), contains="self-dual: yes",
        json_test=lambda d: d.get("problems") == [] and d.get("self_dual") is True)
    add(("gq", "petersen", "--ovoid", str(rng.randrange(6))), fmt=pick(("text", "json")),
        contains="Petersen",
        json_test=lambda d: [r["petersen"] for r in d["results"]] == [True])

    add(("pauli", "table"), fmt=pick(("text", "json", "csv")))
    add(("pauli", "mermin"), fmt=pick(("text", "json")), contains="magic: yes",
        json_test=lambda d: d.get("magic") is True)

    for what in ("table2", "factor96", "factor105"):
        fmt = pick(("text", "json"))
        add(("verify", what), check=_certificate(fmt), fmt=fmt)
    fmt = pick(("text", "json"))
    add(("verify", "table2", "--fixture", str(fixture)), 1, _flipped_cells(*flipped, fmt), fmt)

    exports = {
        "signs": ("csv", "dot", "json"),
        "line": ("json", "csv", "dot"),
        "gq": ("json", "dot"),
        "hyperplanes": ("json",),
        "petersen": ("dot", "json"),
    }
    for what, formats in exports.items():
        fmt = pick(formats)
        out = tmp / f"export-{what}.{fmt}"
        extra = ("--ring", pick(RINGS)) if what == "line" else ()
        if fmt == "dot" and what in ("signs", "line"):
            extra += ("--edge-sign", pick("+-"))
        argv = ("export", "--what", what, "--format", fmt, "--out", str(out), *extra)
        ops.append(Op(argv, 0, _exported(fmt), out))

    bad_ring = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
    add(("ring", "show", bad_ring), 2, _usage_error)
    add(("gq", "petersen", "--ovoid", str(pick((-1, 6, 7, 40)))), 2, _usage_error)
    add(("pauli", "mub", "--spread", str(pick((-2, 6, 9, 99)))), 2, _usage_error)
    add(("line", "subconfig", "--u", pick(("1", "1,0,0", "x,0", "1;0", "99,0"))), 2, _usage_error)
    return ops
