"""Renderer of the ``verify`` command: one verifier report."""

from __future__ import annotations

import argparse

from .cli import VERIFIERS, InputError, _report


def _load_fixture(path: str) -> tuple[str, ...]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read fixture {path}: {e}") from None
    rows = [
        line.strip()
        for line in raw.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return tuple(rows)


def render_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.fixture is not None and args.what != "table2":
        raise InputError("--fixture only applies to 'verify table2'")
    reference = () if args.fixture is None else (_load_fixture(args.fixture),)
    from . import correspondence as co

    return _report(args, co.run(VERIFIERS[args.what], *reference), header=not args.no_header)
