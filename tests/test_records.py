"""The contract of the five record types: field access, equality, hashing,
repr text and immutability.  It holds whatever class machinery backs them."""

import pytest

from hypcount import counting, kummer, qforms, verify
from hypcount.fps import Series

ROW0 = (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
NAMES = ["Orbit", "CountSeries", "CountReport", "NamedForm", "CheckResult"]


def records():
    """(record, an equal record built separately, its fields by name)."""
    orbit = kummer.translation_orbits(4)[0]
    series = counting.f_gk(ROW0, 4)
    report = counting.genus_total(1, 4)
    form = qforms.named_form("E", order=3)
    check = verify.CheckResult("fps", "ring-axioms", "ring axioms", True, "ok")
    return [
        (orbit, kummer.Orbit(tuple(orbit.rep), 4, "even"),
         {"rep": orbit.rep, "size": 4, "coset": "even"}),
        (series, counting.CountSeries(ROW0, "even", Series.one(4)),
         {"config": ROW0, "coset": "even", "series": Series.one(4)}),
        (report, counting.genus_total(1, 4),
         {"genus": 1, "order": 4, "shapes": {"1": (1, Series.one(4))}, "total": Series.one(4)}),
        (form, qforms.NamedForm("E", (), qforms.series_E(3)),
         {"name": "E", "params": (), "series": Series([0, 1, 0, 4], 3)}),
        (check, verify.CheckResult("fps", "ring-axioms", "ring axioms", True, "ok"),
         {"suite": "fps", "name": "ring-axioms", "source": "ring axioms", "ok": True, "detail": "ok"}),
    ]


@pytest.mark.parametrize("index", range(5), ids=NAMES)
def test_record_fields_and_equality(index):
    record, twin, fields = records()[index]
    for name, value in fields.items():
        assert getattr(record, name) == value
    assert record == twin and not record != twin


def test_record_hashing():
    (orbit, twin, _), *rest = records()
    assert hash(orbit) == hash(twin) and len({orbit, twin}) == 1
    # a Series field is unhashable, and so is CountReport's shapes dict
    for record, _, _ in rest[:3]:
        with pytest.raises(TypeError):
            hash(record)


def test_record_repr_text():
    orbit, series = records()[0][0], records()[1][0]
    assert repr(orbit) == (
        "Orbit(rep=(0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1), size=4, coset='even')"
    )
    assert repr(series) == (
        "CountSeries(config=(1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0), "
        "coset='even', series=Series(order=4, '1'))"
    )


# CheckResult is left out: its immutability is not part of the contract
@pytest.mark.parametrize("index", range(4), ids=NAMES[:4])
def test_record_fields_are_read_only(index):
    record, _, fields = records()[index]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert {name: getattr(record, name) for name in fields} == fields

