from __future__ import annotations

import json
import random

import pytest

from agentopt.rng import RngHub, pack_state, unpack_state


@pytest.mark.parametrize("pending_gauss", [False, True])
def test_pack_state_round_trips_getstate_exactly(pending_gauss):
    rng = random.Random(11)
    rng.random()
    if pending_gauss:
        rng.gauss(0.0, 1.0)  # leaves the second normal deviate pending
    assert (rng.getstate()[2] is not None) == pending_gauss
    restored = unpack_state(json.loads(json.dumps(pack_state(rng))))
    assert restored.getstate() == rng.getstate()
    assert [restored.gauss(0.0, 1.0) for _ in range(3)] == [
        rng.gauss(0.0, 1.0) for _ in range(3)
    ]


@pytest.mark.parametrize(
    "damage",
    [
        lambda p: p.update(words=p["words"][:-8]),  # six bytes short of a state
        lambda p: p.update(words=p["words"][:-1]),  # not base64 any more
        lambda p: p.update(words="AAAAAAAAAAA="),  # two words
        lambda p: p.update(gauss_next="0.5"),
        lambda p: p.pop("words"),
    ],
    ids=["short", "not-base64", "two-words", "gauss-next", "no-words"],
)
def test_damaged_packed_state_raises_value_or_key_error(damage):
    packed = pack_state(random.Random(3))
    damage(packed)
    with pytest.raises((ValueError, KeyError)):
        unpack_state(packed)


def test_hub_snapshot_restores_every_stream():
    hub = RngHub(5)
    hub.stream("a").random()
    hub.stream("b").gauss(0.0, 1.0)
    restored = RngHub(5)
    restored.restore(json.loads(json.dumps(hub.snapshot())))
    for label in ("a", "b"):
        assert restored.stream(label).getstate() == hub.stream(label).getstate()
