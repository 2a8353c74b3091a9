import hashlib
import json

import numpy as np
import pytest

from torsionlab.corpus import corpus_get, corpus_list, random_flat_bundle, random_invertible
from torsionlab.errors import TorsionLabError, UnknownNameError
from torsionlab.flat_bundle import check_flatness
from torsionlab.serialization import (
    bundle_to_jsonable,
    complex_to_jsonable,
    content_digest,
    spray_to_jsonable,
)

# Frozen digests: corpus items are stable across versions.
EXPECTED_DIGESTS = {
    "circle-1cell": "11da44a18162bdaa9384fd64e8131bb04a801ced914b175ee9dcf0d2952804a7",
    "circle-2vertex": "125d6814a2a7a161e23a564f47c34a6249db1e297a549f44fb6d10ee316cbde1",
    "klein": "1fd4e465993b2357ab3ded287cba8f30b5991ad82220536e85ba7e6efd9e9fb0",
    "lens-3-1": "5aad629a27461d3582f472c4302977b118dd298ca078ca16c2a9aa79626d6590",
    "lens-5-1": "d40dcbacde55a9ba7ae42665b8175e70fdf76e8c9aa3891276e99b4c1c6832a7",
    "lens-5-2": "f031c9a1f189b51d1c6cc90dae1472b1a0d3897c950bfa928444eb17fa3f6dd5",
    "lens-7-1": "7319cdfdb316310ee4918b8672f8f0c4a65a5007666ebec6ab4a57aa3a8cac76",
    "lens-7-2": "48f2bc15ba36c0304279b73bec9f0c990a82fc941cdbce63dd5831719b7e1330",
    "point": "542b718ec683840a9fd55580ba0556afd01ffb4305016052101e3eab3f60fba2",
    "rp2": "f78c2f2a7119ce9775551d073657b80dc880e20be247f68211c8db7281fe540a",
    "sphere": "98ab299550897343c5715d747f677a9ff2872202f49ad3eee695296aa578c305",
    "tetra-solid": "0dd9b7850bb480c7206ba6c3d524c5d5ba238854dbc8cacf6d9c2decf165ae32",
    "torus": "420cac1927f5967ef782ad1593ef31e991454e322a0d9206012f4118beee4933",
}

# Digest of _draws_record(): every corpus item at ranks None/1/2/3 and seeds 0-3.
RANDOM_DRAWS_DIGEST = "50e973fa97cf22b7009c2e45d34568eee36cd5e25b211152aeb3670c965ccf02"

EXPECTED_TOPOLOGY = {
    # name -> (chi, H1)
    "point": (1, (0, [])),
    "circle-1cell": (0, (1, [])),
    "circle-2vertex": (0, (1, [])),
    "torus": (0, (2, [])),
    "klein": (0, (1, [2])),
    "rp2": (1, (0, [2])),
    "sphere": (2, (0, [])),
    "tetra-solid": (1, (0, [])),
    "lens-3-1": (0, (0, [3])),
    "lens-5-1": (0, (0, [5])),
    "lens-5-2": (0, (0, [5])),
    "lens-7-1": (0, (0, [7])),
    "lens-7-2": (0, (0, [7])),
}


def test_corpus_names_covered():
    assert set(corpus_list()) == set(EXPECTED_DIGESTS)


@pytest.mark.parametrize("name", sorted(EXPECTED_DIGESTS))
def test_item_valid_flat_and_stable(name):
    item = corpus_get(name)
    assert item.complex.validate().ok
    assert check_flatness(item.complex, item.bundle).ok
    digest = content_digest(
        {
            "complex": complex_to_jsonable(item.complex),
            "bundle": bundle_to_jsonable(item.bundle),
            "spray": spray_to_jsonable(item.spray),
        }
    )
    assert digest == EXPECTED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_TOPOLOGY))
def test_item_topology(name):
    chi, h1 = EXPECTED_TOPOLOGY[name]
    cx = corpus_get(name).complex
    assert cx.euler_characteristic() == chi
    assert cx.integral_homology(1) == h1


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        corpus_get("mystery-manifold")
    with pytest.raises(UnknownNameError) as err:
        corpus_get("mystery-manifold")
    assert isinstance(err.value, TorsionLabError)
    assert str(err.value) == f"unknown corpus item 'mystery-manifold'; known: {', '.join(corpus_list())}"


@pytest.mark.parametrize("name", sorted(EXPECTED_DIGESTS))
def test_random_bundles_are_exactly_flat(name):
    rng = np.random.default_rng(61)
    cx = corpus_get(name).complex
    for _ in range(5):
        b = random_flat_bundle(name, cx, rng)
        rep = check_flatness(cx, b)
        assert rep.mode == "exact"
        assert all(d == 0 for d in rep.deviations.values())


def _draws_record():
    """Everything the seeded generators produce, as plain JSON data."""
    out = []
    for name in corpus_list():
        cx = corpus_get(name).complex
        for rank in (None, 1, 2, 3):
            for seed in range(4):
                rng = np.random.default_rng(seed)
                b = random_flat_bundle(name, cx, rng, rank=rank)
                pairs = [
                    [str(e), str(nums.dtype), nums.tolist(), den]
                    for e in sorted(b.edge_matrices, key=str)
                    for nums, den in [b.scaled(e)]
                ]
                out.append([name, rank, seed, bundle_to_jsonable(b), pairs, int(rng.integers(1 << 62))])
    for k in (1, 2, 3):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            m = random_invertible(rng, k)
            out.append([k, seed, [[str(x) for x in row] for row in m], int(rng.integers(1 << 62))])
    return out


def test_random_generators_are_pinned():
    """The seeded random bundles and matrices, and the rng state they leave.

    The values are exact and PCG64 is portable, so the digest is the same on
    every host; the benchmark's input digests rest on these draws.
    """
    text = json.dumps(_draws_record(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_DRAWS_DIGEST
