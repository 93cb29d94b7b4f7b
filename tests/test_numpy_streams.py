"""Known answers for the two numpy random streams that the fixed points rest on.

simulate draws its noise from Generator(Philox(key=seed)).standard_normal,
and the bootstrap splits Philox(key=seed, counter=i << 64).random_raw words
into its resample indices.  NEP 19 keeps bit generators stable but does not
freeze Generator's methods across numpy versions, so a numpy that changed
either stream would move the CSV digests and alpha_stderr_boot.  These
tests name that cause where, without them, only a digest would differ.
"""

import numpy as np
import pytest

# the seeds of test_tracking's FIXED_POINTS
NORMALS = {
    42: ["0x1.59ac544e811a3p-2", "-0x1.90766bb4bc3ccp-1", "-0x1.439c1c3837a89p-2",
         "-0x1.0cf49fceb4fb7p+1"],
    7: ["-0x1.bfebf98eb34f6p+0", "0x1.262aa53eba295p-1", "0x1.3a83595b97b77p-1",
        "0x1.310224a94fa84p-2"],
}
# words of bootstrap draws 0 and 1: the counters [0, 0, 0, 0] and [0, 1, 0, 0]
RAW_WORDS = {
    42: ([0xD1F8817D4D62880E, 0x307266B65CC8797E, 0xDE1F04E7F084ED03, 0x65034A8E78CD1E59],
         [0x34DD631CA2A22DA1, 0x3D471DD82828A5CA]),
    7: ([0xDF4034B829E9FBA4, 0x4B9D10CDF8E64087, 0x6B8B857E506AAC98, 0x67C7C945B1BA6E52],
        [0xDF9A705D89512DB7, 0xD8382CC966CDBD33]),
}


def changed(stream: str) -> str:
    return (f"numpy {np.__version__} changed {stream}; the CSV digests and "
            "alpha_stderr_boot of the fixed points depend on this stream (pinned on numpy 2.4)")


@pytest.mark.parametrize("seed", sorted(NORMALS))
def test_philox_standard_normal_stream(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    got = [v.hex() for v in rng.standard_normal(len(NORMALS[seed])).tolist()]
    assert got == NORMALS[seed], changed(f"Generator(Philox(key={seed})).standard_normal")


@pytest.mark.parametrize("seed", sorted(RAW_WORDS))
def test_philox_random_raw_stream(seed):
    for draw, words in enumerate(RAW_WORDS[seed]):
        got = np.random.Philox(key=seed, counter=draw << 64).random_raw(len(words)).tolist()
        assert got == words, changed(f"Philox(key={seed}, counter={draw} << 64).random_raw")
