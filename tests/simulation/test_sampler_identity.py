"""``LatencyModel.sample`` is ``random.gauss``, draw for draw.

The model runs the Box--Muller steps of ``random.Random.gauss`` itself and
keeps the pair's spare value on the model, so every seeded latency -- and
with it every pinned summary -- must be bit-identical to the stream
``max(minimum, Random(seed).gauss(mean, jitter))`` yields, including across
a ``reseed`` in the middle of a pair and across a pickle round trip taken
while a spare is pending (parallel runs ship models to worker processes).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.simulation.latency import LatencyModel

DRAWS = 10_000
#: (mean, jitter, minimum): the topology's shapes, plus a clamp-heavy one.
MODELS = ((0.145, 0.005, 0.050), (0.005, 0.002, 0.0), (0.004, 0.001, 0.0), (0.001, 0.01, 0.0005))


def _reference(seed, mean, jitter, minimum):
    rng = random.Random(seed)
    while True:
        yield max(minimum, rng.gauss(mean, jitter))


@pytest.mark.parametrize("mean, jitter, minimum", MODELS)
def test_ten_thousand_draws_equal_random_gauss(mean, jitter, minimum):
    model = LatencyModel(mean, jitter, minimum)
    model.reseed(4242)
    reference = _reference(4242, mean, jitter, minimum)
    for _ in range(DRAWS):
        assert model.sample() == next(reference)


def test_the_default_stream_before_any_reseed():
    model = LatencyModel(0.145, 0.005, 0.05)
    reference = _reference(17, 0.145, 0.005, 0.05)
    assert [model.sample() for _ in range(101)] == [next(reference) for _ in range(101)]


def test_a_reseed_mid_pair_drops_the_spare():
    model = LatencyModel(0.145, 0.005, 0.05)
    model.reseed(1)
    for _ in range(3):  # odd: a spare is pending
        model.sample()
    model.reseed(2)
    reference = _reference(2, 0.145, 0.005, 0.05)
    assert [model.sample() for _ in range(1001)] == [next(reference) for _ in range(1001)]


@pytest.mark.parametrize("consumed", [1, 7, 999])
def test_a_pickle_round_trip_keeps_the_pending_spare(consumed):
    model = LatencyModel(0.145, 0.005, 0.05)
    model.reseed(99)
    reference = _reference(99, 0.145, 0.005, 0.05)
    for _ in range(consumed):
        assert model.sample() == next(reference)
    copy = pickle.loads(pickle.dumps(model))
    expected = [next(reference) for _ in range(1001)]
    assert [copy.sample() for _ in range(1001)] == expected
    assert [model.sample() for _ in range(1001)] == expected
