"""The one device record: its merge, its placement and its codec."""

import json

import pytest

from repro.core.netlist import DeviceRec, device_from_payload, device_payload
from repro.geometry import Box


def _rec() -> DeviceRec:
    rec = DeviceRec()
    rec.area = 12
    rec.gates.add(3)
    rec.add_terminal(7, 2)
    rec.add_terminal(1, 4)
    rec.add_terminal(7, 1)
    rec.touch((6, -2))
    rec.touch((6, -4))  # lower-x keys rank below: kept is (6, -2)
    rec.geo += [Box(2, 2, 6, 6), Box(2, 0, 4, 2)]
    return rec


def test_round_trip_with_artwork():
    rec = _rec()
    payload = device_payload(rec)
    assert payload == {
        "area": 12,
        "terms": [[1, 4], [7, 3]],
        "gates": [3],
        "impl": False,
        "loc": [6, -2],
        "geo": [[2, 2, 6, 6], [2, 0, 4, 2]],
    }
    back = device_from_payload(json.loads(json.dumps(payload)))
    assert back == rec
    assert device_payload(back) == payload


def test_a_record_without_artwork_writes_no_geo_key():
    """Fragment-cache entries never hold artwork, and their bytes
    predate the key."""
    payload = device_payload(DeviceRec(4, {0: 2, 1: 2}, {2}, True, None))
    assert "geo" not in payload and payload["loc"] is None
    assert device_from_payload(payload, net_count=3).impl is True


@pytest.mark.parametrize(
    "item",
    [
        {"area": 1, "terms": [[3, 1]], "gates": [], "impl": False, "loc": None},
        {"area": 1, "terms": [], "gates": [-1], "impl": False, "loc": None},
        {"area": True, "terms": [], "gates": [], "impl": False, "loc": None},
        {"area": 1, "terms": [], "gates": [], "impl": False, "loc": ["a", 1]},
    ],
)
def test_net_ids_and_ints_are_checked(item):
    with pytest.raises(ValueError):
        device_from_payload(item, net_count=3)


def test_absorb_is_the_fold():
    rec, other = _rec(), DeviceRec(3, {7: 5, 9: 1}, {4}, True, (8, -10))
    other.geo.append(Box(0, 6, 2, 8))
    rec.absorb(other)
    assert rec == DeviceRec(
        15, {7: 8, 1: 4, 9: 1}, {3, 4}, True, (8, -10),
        [Box(2, 2, 6, 6), Box(2, 0, 4, 2), Box(0, 6, 2, 8)],
    )


def test_shifted_and_merged_with_leave_the_record_alone():
    rec = _rec()
    before = device_payload(rec)
    moved = rec.shifted(10, 20, 100)
    assert moved is not rec
    assert moved == DeviceRec(
        12, {107: 3, 101: 4}, {103}, False, (26, -12),
        [Box(12, 22, 16, 26), Box(12, 20, 14, 22)],
    )
    copy = rec.shifted(0, 0, 0)
    assert copy == rec and copy.terms is not rec.terms
    merged = rec.merged_with(moved)
    assert merged.area == 24 and merged.loc == (26, -12)
    assert device_payload(rec) == before
