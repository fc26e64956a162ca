"""The frozen records every layer returns: one constructor rule, no
assignment, value equality for value records and identity for array
holders."""

import operator
import re
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import peerenc
from peerenc._report import JsonReport, Record
from peerenc.design import Design, ExperimentData, run_design
from peerenc.estimands import BlockSummary, EstimandReport, IdentityReport, MemberAverages, \
    TheoremVerification, VerificationReport, compute_estimand_report, et, member_averages, \
    theorem_1_check, verify_theorems
from peerenc.errors import PeerEncError
from peerenc.estimators import EstimateReport, _BlockStats, _block_stats, estimate_report
from peerenc.mechanisms import Mechanism
from peerenc.montecarlo import EstimatorSummary, McSummary, replicate
from peerenc.population import ComplianceType, DgpConfig, OutcomeConfig, Population, \
    ValidationReport, validate
from conftest import make_population

PHI = Mechanism("phi", 0.8)
PSI = Mechanism("psi", (0.2, 0.3))

VALUE_RECORDS = (Mechanism, OutcomeConfig, DgpConfig, EstimateReport,
                 EstimatorSummary, McSummary, TheoremVerification, VerificationReport,
                 EstimandReport)
ARRAY_HOLDERS = (Population, ValidationReport, MemberAverages, BlockSummary, IdentityReport,
                 ExperimentData, Design)


def _records() -> dict:
    """One record of each class, built the way the package builds it."""
    pop = make_population([["co", "nt"], ["at", "co"], ["co", "co"], ["nt", "co"]],
                          direct=2.0, peer=0.5)
    design = Design(pop, mech_a=PHI, mech_b=PSI, k=2, seed=3)
    data = run_design(design)
    verification = verify_theorems(pop, PHI, PSI)
    verification = verification.replace(mc=replicate(design, 4, verification.targets))
    found = [pop, validate(pop), OutcomeConfig(direct=(1.0, 0.5)),
             DgpConfig(blocks=4, block_size=(2, 3), strata=(0.0, 1.0, 0.0, 0.0)), PHI,
             member_averages(pop, PHI), et(pop), theorem_1_check(member_averages(pop, PSI)),
             compute_estimand_report(pop, PHI, PSI), design, data, estimate_report(data),
             verification.mc.estimators[0], verification.mc, verification.theorems[0],
             verification]
    return {type(r): r for r in found}


RECORDS = _records()


def test_every_record_class_is_covered():
    def subclasses(cls):
        return {c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))}
    public = {c for c in subclasses(Record) if not c.__name__.startswith("_")} - {JsonReport}
    assert set(RECORDS) == {*VALUE_RECORDS, *ARRAY_HOLDERS} == public


@pytest.mark.parametrize("cls", [*VALUE_RECORDS, *ARRAY_HOLDERS], ids=lambda c: c.__name__)
def test_records_take_each_field_once_and_are_frozen(cls):
    record = RECORDS[cls]
    fields = cls._fields
    values = {name: getattr(record, name) for name in fields}
    # by keyword and by position: the same constructor
    assert type(cls(**values)) is cls and type(cls(*values.values())) is cls
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")
    required = [name for name in fields if not hasattr(cls, name)]
    if required:
        with pytest.raises(TypeError, match=f"missing field {required[-1]!r}"):
            cls(**{k: v for k, v in values.items() if k != required[-1]})
    with pytest.raises(TypeError, match="'no_such_field' is not a field"):
        cls(**values, no_such_field=1)
    with pytest.raises(TypeError, match="'no_such_field' is not a field"):
        record.replace(no_such_field=1)
    with pytest.raises(TypeError, match=f"{fields[0]!r} given twice"):
        cls(*values.values(), **{fields[0]: values[fields[0]]})
    with pytest.raises(TypeError, match=f"takes {len(fields)} fields, got {len(fields) + 1}"):
        cls(*values.values(), None)
    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[fields[0]])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, fields[0]) is values[fields[0]]


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda c: c.__name__)
def test_value_records_compare_by_their_fields(cls):
    record = RECORDS[cls]
    copy = record.replace()
    assert copy is not record and copy == record and not copy != record
    if cls is not EstimandReport:  # it holds dicts, as a dict would not hash
        assert hash(copy) == hash(record)
    assert record != object() and record != tuple(getattr(record, n) for n in cls._fields)


def test_configs_hash_by_value():
    assert Mechanism("phi", 0.8) == PHI and hash(Mechanism("phi", 0.8)) == hash(PHI)
    assert Mechanism("phi", 0.8) != Mechanism("phi", 0.7)
    assert {Mechanism("psi", [0.2, 0.3]), PSI} == {PSI}
    assert DgpConfig(2, 3, (0.0, 1.0, 0.0, 0.0)).outcome == OutcomeConfig()


@pytest.mark.parametrize("cls", ARRAY_HOLDERS, ids=lambda c: c.__name__)
def test_array_holders_compare_by_identity(cls):
    record = RECORDS[cls]
    copy = record.replace()
    assert record == record and copy != record
    assert hash(record) == object.__hash__(record)
    assert len({record, copy, record}) == 2


@pytest.mark.parametrize("change", [
    dict(starts=[0, 8]),
    dict(starts=[0, 2, 2, 6, 8]),
    dict(d1=np.array([1, 2, 1, 1, 1, 1, 1, 1])),
    dict(table=np.zeros(3)),
    dict(coef=np.zeros((6, 7))),
], ids=["one-block", "empty-block", "treatment-2", "table-length", "coef-shape"])
def test_population_replace_refuses_what_the_constructor_refuses(change):
    pop = RECORDS[Population]
    fields = {name: getattr(pop, name) for name in Population._fields}
    with pytest.raises((ValueError, PeerEncError)) as built:
        Population(**{**fields, **change})
    with pytest.raises(type(built.value), match=f"^{re.escape(str(built.value))}$"):
        pop.replace(**change)
    # the derived columns are not fields, and are derived again
    assert not {"table_start", "bound"} & set(Population._fields)
    replaced = pop.replace(coef=np.ones((6, 8)))
    assert replaced.bound.tolist() == [6.0] * 8 and not replaced.coef.flags.writeable


@pytest.mark.parametrize("record", [*RECORDS.values(), _block_stats(RECORDS[ExperimentData])],
                         ids=lambda r: type(r).__name__)
def test_every_array_a_record_holds_is_read_only(record):
    arrays = [value for value in vars(record).values() if isinstance(value, np.ndarray)]
    assert bool(arrays) == isinstance(record, (*ARRAY_HOLDERS, _BlockStats))
    assert not any(a.flags.writeable for a in arrays)


def _reachable(value):
    """The value and everything reached through it: a record's attributes,
    derived ones included, and the keys, values and items of containers."""
    yield value
    if isinstance(value, Record):
        children = vars(value).values()
    elif isinstance(value, (dict, MappingProxyType)):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple)):
        children = value
    else:
        return
    for child in children:
        yield from _reachable(child)


@pytest.mark.parametrize("record", [*RECORDS.values(), _block_stats(RECORDS[ExperimentData])],
                         ids=lambda r: type(r).__name__)
def test_nothing_reached_through_a_record_can_change(record):
    reached = list(_reachable(record))
    assert not [type(v).__name__ for v in reached if isinstance(v, (dict, list))]
    assert not [v for v in reached if isinstance(v, np.ndarray) and v.flags.writeable]


_MUTATIONS = {
    "strata-count": lambda r, rep: operator.setitem(r.strata[ComplianceType.COMPLIER], 0, 99),
    "entries-pop": lambda r, rep: rep.entries.pop("et[1,0]"),
    "entries-set": lambda r, rep: operator.setitem(rep.entries, "et[1,0]",
                                                   rep.entries["ditt[1,0,mech=phi]"]),
    "skipped-set": lambda r, rep: operator.setitem(rep.skipped, "x", "y"),
    "block-sizes": lambda r, rep: operator.setitem(rep.metadata["block_sizes"], 0, 7),
}


@pytest.mark.parametrize("mutate", _MUTATIONS.values(), ids=_MUTATIONS)
def test_a_built_report_cannot_be_changed_through_its_fields(mutate):
    pop = RECORDS[Population]
    r, rep = validate(pop), compute_estimand_report(pop, PHI, PSI)
    lines, doc = r.to_text(), rep.to_dict()
    with pytest.raises((TypeError, ValueError, AttributeError)):
        mutate(r, rep)
    assert r.to_text() == lines and rep.to_dict() == doc


def test_replace_takes_and_freezes_dict_fields():
    rep = RECORDS[EstimandReport]
    skipped = {"x": "y"}
    changed = rep.replace(skipped=skipped)
    skipped["z"] = "w"  # the record froze a copy; the caller's dict stays its own
    assert type(changed.skipped) is MappingProxyType and changed.skipped == {"x": "y"}
    assert changed.entries == rep.entries and changed.metadata == rep.metadata
    assert changed.replace(skipped=rep.skipped) == rep and rep.replace(skipped={}).skipped == {}
    verification = RECORDS[VerificationReport]
    assert verification.replace(mc=None).replace(mc=verification.mc) == verification
    assert verification.replace(mc=None).to_dict()["mc"] is None
    strata = dict(RECORDS[ValidationReport].strata)
    assert validate(RECORDS[Population]).replace(strata=strata).strata == strata


@pytest.mark.parametrize("cls, name", [(Population, "d1"), (ExperimentData, "z")],
                         ids=lambda c: getattr(c, "__name__", c))
def test_a_record_owns_the_arrays_it_keeps_and_a_refused_one_leaves_them_writable(cls, name):
    fields = {field: getattr(RECORDS[cls], field).copy() for field in cls._fields}
    bad = fields[name].copy()
    bad[0] = 2
    with pytest.raises((ValueError, PeerEncError)):
        cls(**{**fields, name: bad})
    assert bad.flags.writeable and all(a.flags.writeable for a in fields.values())
    built = cls(**fields)
    kept = [a for field, a in fields.items() if getattr(built, field) is a]
    assert kept and not any(a.flags.writeable for a in kept)


def test_the_read_only_rule_is_written_once():
    sources = {path.name: path.read_text() for path in Path(peerenc.__file__).parent.glob("*.py")}
    assert [n for n, text in sources.items() if "setflags(" in text] == ["_report.py"]
    assert sources["_report.py"].count("setflags(") == 1
    assert not [n for n, text in sources.items() if "object.__setattr__" in text]
