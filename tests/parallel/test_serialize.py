"""The versioned payload format: lossless round-trips and strict loading."""

from __future__ import annotations

import dataclasses

import pytest

from repro.frontend import PlacedLabel
from repro.geometry import Box
from repro.hext import Fragment, extract_primitive, hext_extract, plan_windows
from repro.hext.extractor import HextStats
from repro.hext.windows import Content, WindowPlanner
from repro.parallel import (
    FORMAT_VERSION,
    SerializationError,
    content_payload,
    fragment_from_payload,
    fragment_payload,
    technology_fingerprint,
    window_cache_key,
)
from repro.tech import NMOS, compile_deck, nmos_deck
from repro.workloads import inverter, inverter_rows


def _primitive_fragments():
    """Real primitive fragments plus their source contents."""
    planner_layout = inverter_rows(2, 3)
    planner = WindowPlanner(planner_layout)
    plan = plan_windows(planner, planner.top_content(), HextStats())
    tech = NMOS()
    return [
        (content, extract_primitive(content, tech))
        for content in plan.primitives.values()
    ]


def _moved(content: Content, dx: int, dy: int) -> Content:
    """A copy of a primitive window translated by ``(dx, dy)``."""
    return Content(
        region=content.region.translated(dx, dy),
        geometry=[
            (layer, box.translated(dx, dy)) for layer, box in content.geometry
        ],
        labels=[
            PlacedLabel(lb.name, lb.x + dx, lb.y + dy, lb.layer)
            for lb in content.labels
        ],
    )


def test_fragment_round_trip_is_lossless():
    for _, fragment in _primitive_fragments():
        rebuilt = fragment_from_payload(fragment_payload(fragment))
        assert rebuilt == fragment
        # Payload of the rebuilt fragment is byte-identical, so cache
        # checksums survive a round trip.
        assert fragment_payload(rebuilt) == fragment_payload(fragment)


def test_extraction_commutes_with_serialization():
    """A window's fragment is a function of its canonical payload.

    Redrawing a window's boxes and labels in another order, somewhere
    else on the chip, leaves both the payload (the cache key's body)
    and the extracted fragment unchanged.
    """
    tech = NMOS()
    for content, fragment in _primitive_fragments():
        moved = _moved(content, 700, -300)
        moved.geometry.reverse()
        moved.labels.reverse()
        assert content_payload(moved) == content_payload(content)
        remote = extract_primitive(moved, tech)
        assert fragment_payload(remote) == fragment_payload(fragment)


def test_composed_fragments_refuse_to_serialize():
    result = hext_extract(inverter_rows(2, 3))
    assert result.fragment.children  # composed at the top
    with pytest.raises(SerializationError):
        fragment_payload(result.fragment)


def test_cache_key_sensitivity():
    planner = WindowPlanner(inverter())
    plan = plan_windows(planner, planner.top_content(), HextStats())
    content = next(iter(plan.primitives.values()))
    tech = NMOS()

    base = window_cache_key(content, tech)
    assert base == window_cache_key(content, tech)  # deterministic
    assert base != window_cache_key(content, NMOS(lambda_=100))  # process

    # Placement is not part of the key ...
    moved = _moved(content, 1000, 2000)
    assert window_cache_key(moved, tech) == base
    # ... but artwork is.
    moved.geometry[0] = (
        moved.geometry[0][0],
        moved.geometry[0][1].translated(1, 0),
    )
    assert window_cache_key(moved, tech) != base


def test_cache_key_is_stable_across_the_fixed_resolution():
    """The key still hashes resolution 50, as it did while the
    resolution was an option (always 50).  The digest is the one format
    3 computes for this window; format 2's derivation, which differs
    only in that number, gave 9507063c2a19...e504126."""
    planner = WindowPlanner(inverter())
    plan = plan_windows(planner, planner.top_content(), HextStats())
    (content,) = plan.primitives.values()
    assert window_cache_key(content, NMOS()) == (
        "4d3e7c95cfbf4c9ef2d75320adc583bfe7d86d1ffa0f1708815720d8b7a36d4e"
    )


def test_technology_fingerprint_tracks_rules():
    assert technology_fingerprint(NMOS()) == technology_fingerprint(NMOS())
    assert technology_fingerprint(NMOS()) != technology_fingerprint(
        NMOS(lambda_=100)
    )
    assert technology_fingerprint(NMOS()) != technology_fingerprint(
        compile_deck(dataclasses.replace(nmos_deck(), name="other"))
    )


def test_malformed_payloads_raise():
    import json

    _, fragment = _primitive_fragments()[0]
    good = fragment_payload(fragment)
    fragment_from_payload(good)  # sanity: the original loads

    for mutate in [
        lambda p: p.update(format=FORMAT_VERSION + 1),
        lambda p: p.update(net_count="three"),
        lambda p: p.update(region=[]),
        lambda p: p.pop("devices"),
        lambda p: p.update(interface=[["Q", "NM", 0, 0, 1, 0]]),
        lambda p: p.update(net_names=[[10 ** 6, ["VDD"]]]),
    ]:
        payload = json.loads(json.dumps(good))
        mutate(payload)
        with pytest.raises(SerializationError):
            fragment_from_payload(payload)


def test_empty_fragment_round_trip():
    empty = Fragment(region=(Box(0, 0, 4, 4),), net_count=0)
    assert fragment_from_payload(fragment_payload(empty)) == empty
