"""Exact counting, series, and bijection toolkit for a four-class refinement
of Euler's partition theorem.

Each public name is imported from its submodule on first use (PEP 562), so
importing the package, or one submodule such as the CLI, loads no other.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "maps": (
        "ReductionCase", "ReductionTag", "b_to_c", "c_to_b", "d_lift", "d_reduce",
        "glaisher_to_distinct", "glaisher_to_odd",
    ),
    "partitions": (
        "CapacityError", "ClassMembershipError", "Partition", "PartitionClass",
        "PartitionParseError", "count_table", "enumerate_class", "is_in_class", "normalize",
        "parse_partition", "render_class_d",
    ),
    "series": (
        "TruncatedSeries", "VerificationReport", "euler_expansion_check", "gf_c_chain_stage",
        "gf_c_variant", "gf_class", "verify_identity",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SUBMODULE)


def __getattr__(name: str) -> object:
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
