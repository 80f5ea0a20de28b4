"""Regenerate the current-schema golden store, ``golden_schema6_store/``.

Run from the repo root::

    PYTHONPATH=src:tests python tests/fixtures/make_golden_store.py

``test_mmap.py`` asserts that current code loads the checked-in store
into the answers recorded in ``golden_expected.json``, guarding the
segmented layout and its shared plan table (schema 6) against silent
format drift, so only regenerate after a *deliberate* schema bump.  A
bump first freezes the current fixture under its schema's name and then
points :data:`STORE_DIR` at a new directory.

Every other fixture is frozen, and nothing regenerates it:

* ``golden_mmap_store/`` holds the same entries in the schema-4
  segmented layout, with the auto-planned entry's plan inline in its
  record, as every save up to schema 5 wrote it (this script wrote it
  before the shared plan table);
* ``golden_store/`` (the same entries in the schema-3 npz layout),
  ``golden_sharded_store/`` (the same entries persisted through a
  2-shard ``ShardRouter``, with ``wavelet`` and ``live`` pinned to
  shard 1), ``golden_expected.json`` and ``golden_sharded_expected.json``
  were written by the npz store writer, which the library no longer has.

``test_persistence.py`` / ``test_shard.py`` / ``test_mmap.py`` load the
frozen fixtures to guard the readers for stores already on disk.

The input signal is exact rational arithmetic (no RNG, no libm), so the
stores' contents are reproducible bit-for-bit across platforms.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import (
    BuildBudget,
    StreamingHistogramLearner,
    SynopsisStore,
    WindowedStreamLearner,
)

STORE_DIR = Path(__file__).resolve().parent / "golden_schema6_store"

N = 64


def golden_signal() -> np.ndarray:
    """A deterministic positive signal: exact in float64, no RNG."""
    return ((np.arange(N) * 7919) % 97 + 1) / 97.0


def golden_samples() -> np.ndarray:
    """Deterministic sample positions for the streaming entry."""
    return (np.arange(500) * 31) % N


def golden_window_samples() -> np.ndarray:
    """Deterministic skewed stream for the windowed entry.

    Every third sample is position 5, so the live window has one genuine
    heavy hitter; 600 samples over a 300-sample window (epoch size 75)
    leave the ring mid-window with several expiries behind it.
    """
    samples = (np.arange(600) * 31) % N
    samples[::3] = 5
    return samples


def build_store() -> SynopsisStore:
    """The golden entries: one of every persisted entry kind."""
    store = SynopsisStore()
    signal = golden_signal()
    store.register("merging", signal, family="merging", k=4)
    store.register("wavelet", signal, family="wavelet", k=4)
    store.register("poly", signal, family="poly", k=3, degree=2)
    store.register("exact", signal, family="exact", k=1)
    learner = StreamingHistogramLearner(n=N, k=3)
    learner.extend(golden_samples())
    store.register_stream("live", learner)
    # An auto-planned entry (schema 2): its BuildPlan decision record
    # persists in the manifest, so the golden store also guards the plan
    # schema.  No time budget — the decision is then fully deterministic
    # (build_ms fields are recorded but don't influence the choice).
    store.register_auto("auto", signal, BuildBudget(max_bytes=200))
    # A sliding-window streaming entry (schema 3): the epoch ring and the
    # per-epoch Misra–Gries sketches persist in the payload, so the golden
    # store guards the windowed learner state format too.
    windowed = WindowedStreamLearner(
        n=N, k=3, window_size=300, num_epochs=4, sketch_eps=0.02
    )
    windowed.extend(golden_window_samples())
    store.register_stream("window", windowed)
    return store


def main() -> None:
    build_store().save(STORE_DIR)
    print(f"wrote {STORE_DIR}")


if __name__ == "__main__":
    main()
