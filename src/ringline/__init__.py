"""Projective lines over small finite rings and the structures they carry.

The package builds the projective line over the ring of 2x2 matrices with
GF(2) entries, extracts the 15-point sub-configuration seen from two
distant base points, and verifies exactly that this configuration is the
commutation structure of the 15 two-qubit Pauli operators and the
generalized quadrangle of order two, ovoids, spreads, hyperplanes, magic
square and unbiased bases included.  All arithmetic is integer or
rational; nothing here computes with floats.

Importing the package loads no layer.  Each public name below is looked
up in its defining module on first use (PEP 562 module ``__getattr__``),
so ``from ringline import verify_all`` loads ``correspondence`` and what it
imports, while ``from ringline import ring_by_name`` loads only ``rings``
and ``gf2``.
"""

__version__ = "1.0.0"

# defining module -> the public names it exports through the package
_EXPORTS = {
    "rings": ("Ring", "ring_by_name", "units", "validate_ring"),
    "projline": (
        "DISTANT",
        "NEIGHBOR",
        "Mat2",
        "PointClass",
        "ProjectiveLine",
        "enumerate_line",
        "simultaneous_subconfig",
        "gl2_transitivity_witness",
    ),
    "pauli": (
        "PauliOp",
        "PhasedPauli",
        "commutes",
        "multiply",
        "standard_labeling",
        "mermin_square_check",
        "mub_spread_check",
    ),
    "quadrangle": (
        "Graph",
        "Hyperplane",
        "IncidenceStructure",
        "build_gq_from_graph",
        "enumerate_hyperplanes",
        "enumerate_ovoids",
        "enumerate_spreads",
        "petersen_graph",
        "is_petersen",
    ),
    "correspondence": (
        "CheckResult",
        "Report",
        "verify_relation_signs",
        "verify_split_9_6",
        "verify_split_10_5",
        "trinity_report",
        "verify_all",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
