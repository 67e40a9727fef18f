"""Invariant idempotent probabilities of max-plus iterated function systems.

The pipeline: build a finite space (``spaces``), put a validated system of contracting
maps and normalized weights on it (``mpifs``), find the Aubry set and the path-sum
potential at it on the transition graph (``mane``; the full transitive closure only on
demand), and read every invariant density off the Aubry boundary data (``invariant``).
``fuzzy`` carries the whole picture across the exponential conjugation to fuzzy
attractors, and ``examples`` holds the canonical systems.  ``config``, ``serialize`` and
``cli`` turn one JSON config into the output files of one command.

The API is these modules, as README's library layout table lists them; import each
name from its module (``from tropifs.mane import mane_potential``).  The command line
is ``tropifs.cli``, run as ``python -m tropifs``.
"""
