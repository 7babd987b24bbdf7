"""The seven public records against frozen dataclass twins.

The records share one small base, ``matrices._Frozen``, instead of
``@dataclass(frozen=True)``. Each twin below is a frozen dataclass built
here, from field names written here, so the oracle does not read the code
it checks. A record and its twin, given the same field values, must bind
arguments the same way, reject the same bad calls with TypeError, and agree
on ==, hash, repr, __match_args__ and on refusing assignment and deletion.
"""

import dataclasses

import pytest

from wireid import (
    BinaryMatrix, CableInstance, ConnectionPlan, Construction, KgPartition, ProtocolTranscript, Representation,
    construct, construct_trace, make_cable, represent, run_protocol,
)
from wireid.matrices import _unchecked

FIELDS = {
    BinaryMatrix: ("rows",),
    Representation: ("m", "t", "s", "k"),
    KgPartition: ("n", "a_sets", "b_sets"),
    Construction: ("representation", "matrix", "partition"),
    CableInstance: ("n", "wiring", "seed"),
    ConnectionPlan: ("end", "groups"),
    ProtocolTranscript: ("phase1_plan", "phase1_probe", "phase2_plan", "phase2_probe"),
}

# Two valid records of each class, unequal to each other.
SAMPLES = {
    BinaryMatrix: lambda: (BinaryMatrix([[1, 0], [0, 1]]), BinaryMatrix([[0, 1], [1, 0]])),
    Representation: lambda: (represent(12, 4), represent(13, 4)),
    KgPartition: lambda: (construct(12), construct(13)),
    Construction: lambda: (construct_trace(12), construct_trace(13)),
    CableInstance: lambda: (make_cable(5, 0), make_cable(5, 3)),
    ConnectionPlan: lambda: (ConnectionPlan("A", [{1}, {2, 3}]), ConnectionPlan("B", [{1}, {2, 3}])),
    ProtocolTranscript: lambda: (run_protocol(construct(12), make_cable(12, 0)),
                                 run_protocol(construct(12), make_cable(12, 5))),
}

RECORDS = list(FIELDS)


def twin_of(cls):
    """A frozen dataclass of the same name with the record's fields, and no checks."""
    return dataclasses.make_dataclass(cls.__name__, FIELDS[cls], frozen=True)


def values_of(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("cls", RECORDS)
def test_records_are_not_dataclasses(cls):
    assert not dataclasses.is_dataclass(cls)
    assert cls.__match_args__ == FIELDS[cls] == twin_of(cls).__match_args__


@pytest.mark.parametrize("cls", RECORDS)
def test_binding_by_position_and_by_name(cls):
    record, _ = SAMPLES[cls]()
    values = values_of(record)
    by_name = dict(zip(FIELDS[cls], values))
    mixed, backwards = dict(list(by_name.items())[1:]), dict(reversed(by_name.items()))
    for built in (cls(*values), cls(**by_name), cls(**backwards), cls(*values[:1], **mixed)):
        assert values_of(built) == values
        assert [name for name in vars(built) if not name.startswith("_")] == list(FIELDS[cls])  # in field order
        assert built == record


@pytest.mark.parametrize("cls", RECORDS)
def test_bad_calls_raise_type_error_as_the_twin_does(cls):
    record, _ = SAMPLES[cls]()
    values, names = values_of(record), FIELDS[cls]
    calls = [
        ((*values, values[0]), {}),  # one positional argument too many
        (values[:-1], {}),  # the last field missing
        ((), dict(zip(names[1:], values[1:]))),  # the first field missing
        (values, {names[0]: values[0]}),  # the first field doubled
        (values, {"extra": 1}),  # a name that is no field
        ((), {}),
    ]
    for args, kwargs in calls:
        for built in (cls, twin_of(cls)):
            with pytest.raises(TypeError):
                built(*args, **kwargs)


@pytest.mark.parametrize("cls", RECORDS)
def test_eq_hash_and_repr_match_the_twin(cls):
    record, other = SAMPLES[cls]()
    twin = twin_of(cls)
    mirror, mirror_other = twin(*values_of(record)), twin(*values_of(other))
    assert repr(record) == repr(mirror) and repr(other) == repr(mirror_other)
    assert hash(record) == hash(mirror) and hash(other) == hash(mirror_other)
    assert (record == cls(*values_of(record))) and (mirror == twin(*values_of(record)))
    assert (record != other) and (mirror != mirror_other)
    # Another class compares unequal: both sides return NotImplemented, so == falls back to identity.
    assert record.__eq__(mirror) is NotImplemented and mirror.__eq__(record) is NotImplemented
    assert record != mirror and record != values_of(record)
    # So does a subclass, which keeps the fields.
    sub, twin_sub = type(cls.__name__, (cls,), {}), type(cls.__name__, (twin,), {})
    assert sub.__match_args__ == twin_sub.__match_args__ == FIELDS[cls]
    assert record != sub(*values_of(record)) and mirror != twin_sub(*values_of(record))
    assert len({record, cls(*values_of(record)), other}) == 2


@pytest.mark.parametrize("cls", RECORDS)
def test_assignment_and_deletion_raise_as_on_the_twin(cls):
    record, _ = SAMPLES[cls]()
    mirror = twin_of(cls)(*values_of(record))
    for target in (record, mirror):
        for name in (FIELDS[cls][0], "unrelated"):
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert values_of(record) == tuple(vars(mirror).values())  # nothing changed on either


@pytest.mark.parametrize("cls", RECORDS)
def test_a_class_pattern_binds_the_first_field_as_on_the_twin(cls):
    record, _ = SAMPLES[cls]()
    twin = twin_of(cls)
    bound = []
    for target, kind in ((record, cls), (twin(*values_of(record)), twin)):
        match target:
            case kind(first):
                bound.append(first)
    assert bound == [getattr(record, FIELDS[cls][0])] * 2


def test_a_plan_size_map_stays_out_of_eq_and_repr():
    plan = ConnectionPlan("A", [{2, 3}, {1}])
    other = _unchecked(ConnectionPlan, end="A", groups=plan.groups, _size_at=[0, 7, 7, 7])
    assert plan == other and hash(plan) == hash(other) and repr(plan) == repr(other)
    assert "_size_at" not in repr(plan) and plan._size_at == [0, 1, 2, 2]
    assert repr(plan) == repr(twin_of(ConnectionPlan)(*values_of(plan)))


def test_transcript_coordinates_are_cached_and_stay_out_of_eq():
    transcript, _ = SAMPLES[ProtocolTranscript]()
    fresh = ProtocolTranscript(*values_of(transcript))
    assert "coords_a" not in vars(transcript)
    coords = transcript.coords_a
    assert transcript.coords_a is coords and vars(transcript)["coords_a"] is coords  # computed once, then kept
    assert transcript.coords_b == tuple(zip(transcript.phase1_probe, transcript.phase2_plan._size_at[1:]))
    assert transcript == fresh and hash(transcript) == hash(fresh) and repr(transcript) == repr(fresh)
    with pytest.raises(AttributeError):
        transcript.coords_a = ()

