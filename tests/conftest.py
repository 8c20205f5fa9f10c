"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: the
marker oracle uses python string comparison as the block order, and the
successor oracle sorts explicitly enumerated prefixes.
"""

from __future__ import annotations

import os
import sys
from itertools import combinations

import pytest

import bratteli
from bratteli.diagram import OrderedBratteliDiagram, PathPrefix
from bratteli.trapezoids import WidenSchedule, build_diagram

# `python -m bratteli` in a subprocess, importing the same package tree as the
# tests do, whether or not the package is installed
CLI = [sys.executable, "-m", "bratteli"]
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(bratteli.__file__)))
CLI_ENV = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}

# texts int() reads but str never writes, which every reader refuses: a sign,
# an underscore, a non-ASCII digit, a leading zero and -0
RESPELLINGS = ("+1", "1_0", "\u0662", "01", "-0")


def oracle_row_positions(word: str, k: int) -> set[int]:
    """Marker rule via lexicographic maxima: a marker sits at n iff the
    block at n is >= every block starting in some length-k window of
    starting positions containing n."""
    length = len(word)
    lo, hi = k - 1, length - 2 * k + 1
    positions = set()
    for n in range(lo, hi + 1):
        mine = word[n:n + k]
        for i in range(n - k + 1, n + 1):
            if all(mine >= word[j:j + k] for j in range(i, i + k)):
                positions.add(n)
                break
    return positions


def enumerate_prefixes(diagram: OrderedBratteliDiagram, depth: int) -> list[PathPrefix]:
    """Recursive prefix enumeration, independent of vershik.all_prefixes."""
    if depth == 0:
        return [PathPrefix(diagram, ())]
    out = []
    for shorter in enumerate_prefixes(diagram, depth - 1):
        want = shorter.edges[-1].source if shorter.edges else 0
        for e in diagram.edges_at(depth):
            if e.target == want:
                out.append(PathPrefix(diagram, shorter.edges + (e,)))
    return out


def inverse_lex_key(p: PathPrefix) -> tuple[int, ...]:
    """Inverse lexicographic order = lexicographic on orders read deep-first."""
    return tuple(e.order for e in reversed(p.edges))


def oracle_successor(p: PathPrefix) -> PathPrefix | None:
    """Exhaustive successor: the minimum strictly-greater same-source prefix."""
    same = [q for q in enumerate_prefixes(p.diagram, p.depth)
            if q.edges[-1].source == p.edges[-1].source]
    same.sort(key=inverse_lex_key)
    i = same.index(p)
    return same[i + 1] if i + 1 < len(same) else None


def oracle_prefix_set_diameter(prefixes) -> float:
    """2^-k for k the least, over all pairs, number of shared leading edge
    indices; 0 for at most one prefix."""
    def shared(a: tuple[int, ...], b: tuple[int, ...]) -> int:
        n = 0
        while n < min(len(a), len(b)) and a[n] == b[n]:
            n += 1
        return n

    pairs = list(combinations([p.indices() for p in prefixes], 2))
    if not pairs:
        return 0.0
    return 2.0 ** -min(shared(a, b) for a, b in pairs)


@pytest.fixture(scope="session")
def fullshift3() -> OrderedBratteliDiagram:
    """Three-level full-shift diagram."""
    return build_diagram(3, WidenSchedule((1,)))
