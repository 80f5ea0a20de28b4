"""Command-line entry point: ``python -m repro <experiment> [options]``.

Experiments:

* ``figure1``     — the three datasets (summary stats + ASCII sketches)
* ``table1``      — offline error/time comparison (the paper's Table 1)
* ``figure2``     — learning-from-samples curves (the paper's Figure 2)
* ``scaling``     — EXT: running time vs input size
* ``ablation``    — EXT: Algorithm 1 delta/gamma trade-offs
* ``pareto``      — EXT: multi-scale hierarchy vs exact optimum
* ``poly``        — EXT: piecewise-polynomial quality and FitPoly cost
* ``lower_bound`` — EXT: sample-complexity upper/lower bound checks

Serving commands:

* ``query``       — build one synopsis, answer a batch of random queries
  (``--family auto`` plans the family/k from a ``--max-bytes`` /
  ``--max-error`` / ``--max-build-ms`` budget; ``--kind inner_product``
  pairs the synopsis against a lossless reference)
* ``serve``       — register synopses (or load a persisted store with
  ``--store-dir``) and answer queries from stdin; ``--shards N`` serves
  from N concurrent store/engine shards; ``plan <name>`` prints an
  auto-planned entry's decision record;
  ``--window W`` adds a sliding-window streaming entry answering the
  ``heavy`` command (approximate heavy hitters over the live window);
  ``inspect <name>`` prints one entry's metadata, shard and whether it
  holds its prefix table, and ``cache`` the engines' hit/miss counters
* ``save``        — build synopses and persist the store to a directory
  of memory-mappable segments (``--shards N`` writes the sharded layout;
  ``--families auto`` plans)
* ``load``        — load + fully validate a persisted store (plain or
  sharded, detected automatically; legacy npz stores load too)
* ``inspect``     — print a persisted store's manifest(s) — for sharded
  stores the parent shard map plus every shard (no payload reads;
  ``--sort error`` ranks entries NaN-safely; ``--name`` opens only the
  segments holding the named entries)
* ``metrics``     — load a persisted store, probe it with batched
  queries, and print the metrics exposition (``--format text`` for
  Prometheus text format, ``json`` for the percentile readout;
  ``--no-probe`` reports registry state without touching payloads)

Run ``python -m repro <command> --help`` for per-command options.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Sequence

from .experiments import (
    ablation,
    figure1,
    figure2,
    lower_bound,
    pareto,
    poly,
    scaling,
    table1,
)
from .serve.cli import (
    inspect_main,
    load_main,
    metrics_main,
    query_main,
    save_main,
    serve_main,
)

EXPERIMENTS = {
    "figure1": figure1.main,
    "table1": table1.main,
    "figure2": figure2.main,
    "scaling": scaling.main,
    "ablation": ablation.main,
    "pareto": pareto.main,
    "poly": poly.main,
    "lower_bound": lower_bound.main,
}

COMMANDS = {
    **EXPERIMENTS,
    "query": query_main,
    "serve": serve_main,
    "save": save_main,
    "load": load_main,
    "inspect": inspect_main,
    "metrics": metrics_main,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in {"-h", "--help"}:
        print(__doc__)
        return 0
    name = args[0]
    if name not in COMMANDS:
        print(f"unknown command {name!r}; available: {', '.join(COMMANDS)}")
        return 2
    try:
        COMMANDS[name](args[1:])
        sys.stdout.flush()  # a block-buffered pipe still holds the last lines
    except BrokenPipeError:
        # The reader of our output went away (``... | head -1``): nothing
        # more can reach it.  Point stdout at devnull so the interpreter's
        # exit flush does not fail on the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
