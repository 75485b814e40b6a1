"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a Philox generator derived
from (master_seed, stream_label).  The label is hashed so distinct purposes
("gibbs.importance", "cauchy.mc", ...) get statistically independent
counter-based streams, and the same pair always reproduces the same draws
regardless of call order elsewhere in the program.
"""

import hashlib

import numpy as np


def stream_key(label):
    """Map a stream label to a stable 64-bit integer (first 8 sha256 bytes)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed, label):
    """Return a numpy Generator for (seed, label).

    Parameters
    ----------
    seed : int
        Master seed, 0 <= seed < 2**64.
    label : str
        Purpose of the stream, e.g. "field.sample".
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in 64 bits")
    # the key's second word stays 0, so that no stream's bytes move
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(stream_key(label), 0))
    return np.random.Generator(np.random.Philox(ss))


def standard_complex(rng, size):
    """Standard complex Gaussians: E g = 0, E |g|^2 = 1, E g^2 = 0."""
    xy = rng.standard_normal(size=size + (2,) if isinstance(size, tuple)
                             else (size, 2))
    # bitwise (x + 1j y) / sqrt(2): complex / real multiplies both parts by
    # the reciprocal; scaled in place, no complex temporaries
    xy *= 1.0 / np.sqrt(2.0)
    return xy.view(complex)[..., 0]
