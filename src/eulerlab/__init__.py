"""Exact counting, series, and bijection toolkit for a four-class refinement
of Euler's partition theorem."""

from .maps import (
    ReductionCase,
    ReductionTag,
    b_to_c,
    c_to_b,
    d_lift,
    d_reduce,
    glaisher_to_distinct,
    glaisher_to_odd,
)
from .partitions import (
    CapacityError,
    ClassMembershipError,
    Partition,
    PartitionClass,
    PartitionParseError,
    count_table,
    enumerate_class,
    is_in_class,
    normalize,
    parse_partition,
    render_class_d,
)
from .series import (
    InvertibilityError,
    PochSpec,
    TruncatedSeries,
    VerificationReport,
    euler_expansion_check,
    gf_c_chain_stage,
    gf_c_variant,
    gf_class,
    pochhammer,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ClassMembershipError",
    "InvertibilityError",
    "Partition",
    "PartitionClass",
    "PartitionParseError",
    "PochSpec",
    "ReductionCase",
    "ReductionTag",
    "TruncatedSeries",
    "VerificationReport",
    "b_to_c",
    "c_to_b",
    "count_table",
    "d_lift",
    "d_reduce",
    "enumerate_class",
    "euler_expansion_check",
    "gf_c_chain_stage",
    "gf_c_variant",
    "gf_class",
    "glaisher_to_distinct",
    "glaisher_to_odd",
    "is_in_class",
    "normalize",
    "parse_partition",
    "pochhammer",
    "render_class_d",
    "verify_identity",
]
