"""Deterministic random-stream derivation.

Every source of randomness in the library is a named substream of one master
seed.  A substream is identified by a purpose string plus integer indices
(e.g. trial number, lift size, lift seed), so results are reproducible
byte-for-byte no matter how work is scheduled across processes.
"""

import hashlib

import numpy as np

from .errors import AnalysisError


def _check_seed(seed):
    """Raise :class:`AnalysisError` when ``seed`` is negative."""
    if seed < 0:
        raise AnalysisError(f"seed must be a non-negative integer, got {seed}")


def substream(master_seed, purpose, *indices):
    """Return a ``numpy.random.Generator`` for one named stream.

    The purpose string is hashed into the spawn key, so distinct purposes
    yield statistically independent streams even for equal index tuples.

    Parameters
    ----------
    master_seed : int
        Master seed (any non-negative integer, typically 64-bit).
    purpose : str
        Name of the stream, e.g. ``"lift"`` or ``"cover-walk"``.
    *indices : int
        Optional integer coordinates distinguishing streams of the same
        purpose (trial index, lift size, cell seed, ...).

    Raises
    ------
    AnalysisError
        When ``master_seed`` is negative.
    """
    _check_seed(master_seed)
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    words = tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    )
    key = words + tuple(int(i) for i in indices)
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.default_rng(seq)
