"""JSON complex documents and subgroup spec strings for the CLI.

Document layout::

    {
      "group": {"kind": "free_abelian", "rank": 2}
               | {"kind": "integral_matrix", "dimension": 2,
                  "generators": [[[1,2],[0,1]], [[1,0],[2,1]]]},
      "cells": [1, 2, 1],
      "boundaries": [
        {"dim": 1,
         "entries": [[[{"coeff": 1, "element": [1, 0]},
                       {"coeff": -1, "element": [0, 0]}], ...], ...]}
      ]
    }

``entries`` is a rows x cols nested list of term lists.  For matrix groups a
term uses ``"word": [1, -2]`` (1-indexed generators, negative for inverses;
``"word": []`` for the identity) instead of ``"element"``.  No object has
other keys, and no two boundaries share a ``dim``.

Subgroup specs: semicolon-separated rows of integers for abelian basis
matrices ("2 0; 0 3", or just "12" for rank one), or "mod m" for congruence
subgroups of matrix groups.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from .errors import DocumentError
from .group_ring import EquivariantChainComplex, GroupRingElement, GroupRingMatrix
from .groups import (CongruenceSubgroup, FreeAbelian, IntegralMatrixGroup,
                     LatticeSubgroup)


def _is_int(x) -> bool:  # JSON true and false are not integers, though bool is an int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_matrix(node) -> bool:
    return isinstance(node, list) and all(
        isinstance(row, list) and all(map(_is_int, row)) for row in node)


def _check_keys(node: dict, allowed, where: str) -> None:  # a misspelt key reads as absent
    unknown = sorted(map(str, set(node) - set(allowed)))
    if unknown:
        raise DocumentError(f"{where} takes only the keys {list(allowed)}, not {unknown}")


def _parse_group(node):
    if not isinstance(node, dict) or "kind" not in node:
        raise DocumentError("group must be an object with a 'kind'")
    kind = node["kind"]
    if kind == "free_abelian":
        _check_keys(node, ("kind", "rank"), "free_abelian group")
        rank = node.get("rank")
        if not _is_int(rank) or rank < 1:
            raise DocumentError("free_abelian group needs integer rank >= 1")
        return FreeAbelian(rank)
    if kind == "integral_matrix":
        _check_keys(node, ("kind", "dimension", "generators"), "integral_matrix group")
        dim = node.get("dimension")
        gens = node.get("generators")
        if (not _is_int(dim) or not isinstance(gens, list) or not gens
                or not all(map(_is_int_matrix, gens))):
            raise DocumentError(
                "integral_matrix group needs dimension and integer generator matrices")
        try:
            return IntegralMatrixGroup(dim, gens)
        except ValueError as e:
            raise DocumentError(f"bad matrix group: {e}")
    raise DocumentError(f"unknown group kind {kind!r}")


def _parse_term(group, term, where: str) -> GroupRingElement:
    if not isinstance(term, dict) or "coeff" not in term:
        raise DocumentError(f"term at {where} must be an object with 'coeff'")
    coeff = term["coeff"]
    if not _is_int(coeff):
        raise DocumentError(f"coefficient at {where} must be an integer")
    key = "element" if isinstance(group, FreeAbelian) else "word"
    _check_keys(term, ("coeff", key), f"term at {where}")
    if key == "element":
        el = term.get("element")
        if (not isinstance(el, list) or len(el) != group.rank
                or not all(map(_is_int, el))):
            raise DocumentError(
                f"term at {where} needs 'element' with {group.rank} integers")
        return GroupRingElement.monomial(group, tuple(el), coeff)
    word = term.get("word")
    if not isinstance(word, list) or not all(_is_int(x) and x != 0 for x in word):
        raise DocumentError(f"term at {where} needs 'word' of nonzero integers")
    el = group.identity
    for w in word:
        idx = abs(w) - 1
        if idx >= len(group.generators):
            raise DocumentError(f"word at {where} references generator {abs(w)}")
        g = group.generators[idx]
        el = group.mul(el, g if w > 0 else group.inv(g))
    return GroupRingElement.monomial(group, el, coeff)


def parse_complex(doc: Union[dict, str, Path]) -> EquivariantChainComplex:
    """Parse and validate a complex document (dict, JSON text, or file path).

    A ``Path``, or a string ending in ``.json``, that names no file is
    refused as missing; any other such string is read as JSON text."""
    if isinstance(doc, (str, Path)):
        # isfile is False, not an error, for text no file name can be (too
        # long for the OS, or holding a NUL byte): such text is parsed as JSON
        if os.path.isfile(doc):
            try:
                text = Path(doc).read_text()
            except (OSError, UnicodeDecodeError) as e:
                raise DocumentError(f"cannot read {doc}: {e}")
        elif isinstance(doc, Path) or doc.endswith(".json"):
            raise DocumentError(f"cannot read {doc}: no such file")
        else:
            text = doc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise DocumentError(f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    _check_keys(doc, ("group", "cells", "boundaries"), "document")
    group = _parse_group(doc.get("group"))
    cells = doc.get("cells")
    if (not isinstance(cells, list) or not cells
            or not all(_is_int(a) and a >= 0 for a in cells)):
        raise DocumentError("'cells' must be a list of nonnegative integers")
    nodes = doc.get("boundaries", [])
    if not isinstance(nodes, list) or not all(isinstance(node, dict) for node in nodes):
        raise DocumentError("'boundaries' must be a list of objects")
    boundaries = {}
    for k, node in enumerate(nodes):
        _check_keys(node, ("dim", "entries"), f"boundaries[{k}]")
        q = node.get("dim")
        if not _is_int(q) or not 1 <= q < len(cells) or q in boundaries:
            raise DocumentError(f"boundary dim {q!r} out of range or repeated")
        entries = node.get("entries")
        nrows, ncols = cells[q - 1], cells[q]
        if not isinstance(entries, list) or len(entries) != nrows:
            raise DocumentError(f"boundary {q} needs {nrows} rows")
        grid = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != ncols:
                raise DocumentError(f"boundary {q} row {i} needs {ncols} columns")
            out_row = []
            for j, terms in enumerate(row):
                if not isinstance(terms, list):
                    raise DocumentError(f"boundary {q} entry ({i},{j}) must be a term list")
                acc = GroupRingElement.zero(group)
                for t in terms:
                    acc = acc + _parse_term(group, t, f"boundary {q} entry ({i},{j})")
                out_row.append(acc)
            grid.append(out_row)
        boundaries[q] = GroupRingMatrix(group, grid, shape=(nrows, ncols))
    try:
        return EquivariantChainComplex(group, cells, boundaries)
    except ValueError as e:
        raise DocumentError(str(e))


def parse_subgroup(group, spec: str):
    """Parse a subgroup spec string for the given group."""
    spec = spec.strip()
    if not spec:
        raise DocumentError("empty subgroup spec")
    if spec.lower().startswith("mod"):
        if not isinstance(group, IntegralMatrixGroup):
            raise DocumentError("'mod m' subgroups require a matrix group")
        try:
            level = int(spec[3:].strip())
        except ValueError:
            raise DocumentError(f"bad congruence level in {spec!r}")
        if level < 2:
            raise DocumentError("congruence level must be >= 2")
        return CongruenceSubgroup(level)
    if not isinstance(group, FreeAbelian):
        raise DocumentError("matrix groups take 'mod m' subgroup specs")
    rows = []
    for chunk in spec.split(";"):
        try:
            row = [int(x) for x in chunk.split()]
        except ValueError:
            raise DocumentError(f"bad integer in subgroup spec {spec!r}")
        if row:
            rows.append(row)
    n = group.rank
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DocumentError(
            f"subgroup spec must be a {n}x{n} integer matrix, got {spec!r}")
    return LatticeSubgroup(rows)
