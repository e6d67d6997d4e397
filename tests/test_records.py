"""The record types keep what callers and the benchmark read of them.

perfbench/outputs.py hashes repr(image) of sampled map images, so the reprs
stay exactly as the frozen dataclasses these types replaced printed them;
hashes match the dataclass ones too.
"""

import copy
import pickle

import pytest

import eulerlab
from eulerlab.acceptance import CriterionResult
from eulerlab.maps import ReductionCase, ReductionTag, d_reduce
from eulerlab.partitions import Partition, normalize
from eulerlab.series import PochSpec, TruncatedSeries, VerificationReport

PUBLIC_NAMES = [
    "CapacityError",
    "ClassMembershipError",
    "Partition",
    "PartitionClass",
    "PartitionParseError",
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
    "render_class_d",
    "verify_identity",
]


def test_reprs_are_the_dataclass_ones():
    assert repr(Partition((3, 2))) == "Partition(parts=(3, 2))"
    assert repr(Partition()) == "Partition(parts=())"
    assert repr(d_reduce(Partition((3, 2)))) == (
        "(Partition(parts=(3, 1)), "
        "ReductionTag(case=<ReductionCase.SMALLEST_ABOVE_ONE: 'smallest_above_one'>))"
    )
    assert repr(VerificationReport("half_D", 5, False, 0.5, 3, 2, 0, "ctx")) == (
        "VerificationReport(name='half_D', order=5, passed=False, elapsed=0.5, "
        "exponent=3, lhs=2, rhs=0, context='ctx')"
    )
    assert repr(CriterionResult("golden_table", True, "", 0.25)) == (
        "CriterionResult(name='golden_table', passed=True, detail='', elapsed=0.25)"
    )


def test_hashes_are_the_dataclass_ones():
    assert hash(Partition((3, 2))) == hash(normalize(x for x in (2, 3))) == hash(((3, 2),))
    assert Partition((3, 2)) == normalize([2, 0, 3]) and Partition((3, 2)) != Partition((3, 1))
    assert Partition((3, 2)) != (3, 2)
    tag = ReductionTag(ReductionCase.SINGLE_PART)
    assert hash(tag) == hash((ReductionCase.SINGLE_PART,))
    report = VerificationReport("euler_AB", 5, True, 0.0)
    assert hash(report) == hash(("euler_AB", 5, True, 0.0, None, None, None, ""))


@pytest.mark.parametrize(
    "record,field",
    [
        (Partition((2, 1)), "parts"),
        (ReductionTag(ReductionCase.SINGLE_PART), "case"),
        (PochSpec(1, 1, 2, 3), "offset"),
    ],
    ids=lambda value: type(value).__name__ if not isinstance(value, str) else value,
)
def test_records_refuse_assignment(record, field):
    before = repr(getattr(record, field))
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert repr(getattr(record, field)) == before


def test_records_survive_pickle_and_copy():
    for record in (
        Partition((3, 2)),
        ReductionTag(ReductionCase.SINGLE_PART),
        VerificationReport("euler_AB", 5, True, 0.0),
        TruncatedSeries([1, 2, 3]),
    ):
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert clone == record and type(clone) is type(record)
    spec = pickle.loads(pickle.dumps(PochSpec(-1, 2, 3, 4)))
    assert (spec.sign, spec.offset, spec.step, spec.terms) == (-1, 2, 3, 4)


def test_partition_is_not_a_sequence():
    assert not hasattr(Partition, "__len__")
    assert not hasattr(Partition, "__iter__")
    with pytest.raises(TypeError):
        len(Partition((2, 1)))


def test_star_import_binds_every_public_name():
    assert eulerlab.__all__ == PUBLIC_NAMES
    namespace: dict = {}
    exec("from eulerlab import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()
    assert namespace["Partition"] is Partition
    with pytest.raises(AttributeError):
        eulerlab.no_such_name
