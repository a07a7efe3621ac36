"""Pin the suite graphs byte for byte.

Every simulated cycle count starts from these arrays, so a change to
graph construction (generation, symmetrise/sort/dedupe, relabelling)
must leave them identical.  The digests are sha256 over the raw
``indptr`` (int64) and ``indices`` (int32) buffers.
"""

import hashlib

import pytest

from repro.experiments.harness import ordered_suite_graph

#: (graph, ordering) -> (sha256 of indptr, sha256 of indices); random
#: order uses ``ordered_suite_graph``'s default seed 5.
DIGESTS = {
    ("auto", "natural"): (
        "5047cde4552823acd815fce006ee03b9dc28b0784cdc975726e6c049792cd85a",
        "581238eb80db90e8e26595b3a974f2cf1b3d71a6d9398b55445459ff466aac6f"),
    ("auto", "random"): (
        "61c446aff4c63743e891bfb223389edc52da9073770ab3757d5f0619908177f2",
        "805a3b96d633640233c42dd3a9952233b9b707ad3f25ee1fc1c9ea6058d09521"),
    ("inline_1", "natural"): (
        "a59a7407ca17dab6e68db60965d9bf5149604aabc575fef1647c9a392a0dddfc",
        "220af7c2a8ea36e631a680d43c3c3e64c6ce8ccf552f0a53cca9518ac440e33c"),
    ("inline_1", "random"): (
        "24c2f561b116a7d0274464104517900f66462b7c31bcef2a36e0df42f55f407a",
        "e90a2f0b090c7a5395ebe6410518683b4e1b8cdca242071a210da2e0954c0c28"),
    ("pwtk", "natural"): (
        "f56b21c1b0f2b1381ced0484158a3bff079b29a47e3438c60eb2ed090935e84c",
        "592ff0c52e6cccc1b49dba8d67eee2f5996c173f76a17869e09f7e4f2ea7f8a8"),
    ("pwtk", "random"): (
        "a00df88f83cde94b643a6c829e909784b633fe3131ba70025f2655aa865ddfb4",
        "e932bd97368a19b8a2426d733a79be77f09676cc164318dd54c5a7847cbb2d3f"),
}


@pytest.mark.parametrize("name, ordering", sorted(DIGESTS))
def test_suite_graph_bytes_are_pinned(name, ordering):
    g = ordered_suite_graph(name, ordering)
    assert (hashlib.sha256(g.indptr.tobytes()).hexdigest(),
            hashlib.sha256(g.indices.tobytes()).hexdigest()) \
        == DIGESTS[name, ordering]
