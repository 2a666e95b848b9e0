"""Deterministic random-stream derivation.

A master seed plus a path of labels (command name, parameter reprs, batch
indices, ...) is hashed into ``SeedSequence`` entropy.  Distinct label paths
give statistically independent PCG64 streams; the same path replays the same
stream on every run and platform.  This is the splitting contract the
sampling helpers rely on: never share one generator across parallel workers,
derive one stream per worker/batch instead.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .linalg import as_integer


def derive_rng(master_seed: int, *labels: object) -> np.random.Generator:
    """Generator for the stream addressed by ``labels`` under ``master_seed``."""
    # a numpy scalar label addresses the stream of the builtin value it holds
    labels = tuple(x.item() if isinstance(x, np.generic) else x for x in labels)
    digest = hashlib.sha256(repr(labels).encode("utf-8")).digest()
    words = [int.from_bytes(digest[k:k + 4], "big") for k in range(0, 32, 4)]
    seed = as_integer(master_seed, "master_seed")
    return np.random.default_rng(np.random.SeedSequence([seed] + words))
