"""Enumeration caps, overridable through the L2GROWTH_CAPS environment variable.

Format: ``L2GROWTH_CAPS="bfs=20,order=100000,eig=2000"``, each a positive integer.
``Caps.from_env`` refuses an unknown key or a value below 1 with :class:`BadCaps`;
``DEFAULT_CAPS`` then keeps the defaults, so the import never fails.  Keys:

* ``bfs``     - maximum word length in matrix groups: of BFS word lengths, and
  of the kernel words the shortest-element search certifies (its BFS walks
  half of that length)
* ``visited`` - maximum number of elements any ball walk visits, counted in
  BFS order within a level, the shortest-element search in both kinds of
  group included (its refusal still carries the lower bound that the levels
  it completed certify); each level's arrays are also charged to the byte
  budget, and a level whose integer products could pass 2^62 is refused
* ``order``   - maximum order of a realized finite quotient / cover instantiation
* ``eig``     - maximum size of a boundary's Gram matrix, on its smaller side,
  whose spectrum is computed (the eigensolver runs on its equivariant blocks);
  a cover Laplacian's spectrum needs the Grams of both its boundaries
* ``short``   - maximum word length of the subgroup elements of Z^n the
  shortest-element search certifies (its BFS walks half of that length)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import BadCaps


@dataclass(frozen=True)
class Caps:
    bfs_length: int = 20
    bfs_visited: int = 1_000_000
    order: int = 100_000
    eig: int = 2000
    short: int = 128

    @classmethod
    def from_env(cls) -> "Caps":
        caps = cls()
        raw = os.environ.get("L2GROWTH_CAPS", "")
        if not raw.strip():
            return caps
        fields = {
            "bfs": "bfs_length",
            "visited": "bfs_visited",
            "order": "order",
            "eig": "eig",
            "short": "short",
        }
        updates = {}
        for piece in raw.split(","):
            piece = piece.strip()
            if not piece:
                continue
            key, _, value = piece.partition("=")
            key = key.strip().lower()
            if key not in fields:
                raise BadCaps(f"unknown cap name in L2GROWTH_CAPS: {key!r}")
            try:
                cap = int(value)
            except ValueError:
                cap = 0  # not an integer: refused like a cap below 1
            if cap < 1:
                raise BadCaps(f"bad cap value in L2GROWTH_CAPS: {piece!r}")
            updates[fields[key]] = cap
        return replace(caps, **updates)


try:
    DEFAULT_CAPS = Caps.from_env()
except BadCaps:  # importing never fails; the CLI reads the caps again and refuses them
    DEFAULT_CAPS = Caps()
