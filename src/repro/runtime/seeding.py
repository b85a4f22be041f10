"""Deterministic seed derivation for trial fan-out.

Experiments never touch the module-level :mod:`random` state: every
trial gets its own integer seed drawn from a named stream, and every
client inside a trial gets its own :class:`random.Random` derived from
that seed.  Two properties follow:

* trials are independent — reordering or parallelising them cannot
  change any trial's randomness;
* concurrent experiments in one process cannot interleave RNG state,
  because no stream is shared.
"""

from __future__ import annotations

import random

#: seeds are drawn from [0, 2**63) — comfortably within what
#: ``random.Random`` accepts and what JSON round-trips exactly
SEED_BITS = 63


def seed_stream(seed: int | str) -> random.Random:
    """A named RNG stream; equal seeds yield equal streams."""
    return random.Random(seed)


def derive_seeds(seed: int | str, n: int) -> list[int]:
    """``n`` per-trial seeds drawn from the stream named by ``seed``.

    The whole prefix is stable: ``derive_seeds(s, n)`` is a prefix of
    ``derive_seeds(s, m)`` for ``n <= m``, so growing ``trials`` keeps
    the earlier trials' randomness unchanged.
    """
    if n < 0:
        raise ValueError(f"cannot derive {n} seeds")
    stream = seed_stream(seed)
    return [stream.randrange(2**SEED_BITS) for _ in range(n)]


def derive_seed(base: int | str, label: str) -> int:
    """One integer seed for the substream named ``label`` under ``base``.

    The campaign layer derives every grid cell's seed this way
    (``derive_seed(campaign_seed, cell_id)``), and each cell's trial
    seeds then come from :func:`derive_seeds` on a cell-local stream —
    so two distinct cells can never share a trial seed stream, no
    matter how the grid is sliced, sharded or resumed.
    """
    return seed_stream(f"{base}/{label}").randrange(2**SEED_BITS)
