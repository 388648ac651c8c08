from __future__ import annotations

from agentopt.rng import RngHub


def test_a_stream_depends_on_its_label_and_the_root_seed_only():
    hub = RngHub(5)
    first = [hub.stream("a").random() for _ in range(3)]
    other = RngHub(5)
    other.stream("b").random()  # another consumer drawing first changes nothing
    assert [other.stream("a").random() for _ in range(3)] == first
    assert other.stream("a") is other.stream("a")
    assert RngHub(6).stream("a").random() != first[0]
