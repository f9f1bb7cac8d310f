"""Concatenated n->1 codes from 2- and 3-bit subunits: trees, per-bit success, simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mzi, qrac

_ALICE_STREAM = 0
_BOB_STREAM = 1


class ConcatTree:
    """Nesting of 2->1 and 3->1 subunits encoding n leaves into one message bit.

    Built from nested sequences of leaf indices, a group's size giving its
    subunit's arity: ``[[0, 1], [2, 3]]`` is the balanced n = 4 code. One walk
    checks the nesting, numbers the subunits in postorder (root last; subunit
    ``u`` keys its Alice and Bob streams ``2 u`` and ``2 u + 1``), and stores
    each subunit's children and one parent link per node: the (subunit number,
    child slot) that holds it. A leaf's path from the root is walked up from its
    link only when asked for.
    """

    def __init__(self, nested):
        subunits: list[tuple[tuple[bool, int], ...]] = []
        # parent links: of each subunit by number (the root has none), and of each
        # leaf occurrence as (leaf index, link)
        subunit_links: list[tuple[int, int] | None] = []
        leaf_links: list[tuple[int, tuple[int, int]]] = []
        if isinstance(nested, int):
            raise ValueError("a tree needs at least one subunit, got a bare leaf")
        self._walk(nested, subunits, subunit_links, leaf_links)
        leaf_links.sort()
        if [leaf for leaf, _ in leaf_links] != list(range(len(leaf_links))):
            raise ValueError("leaf indices must be a permutation of 0..n-1")
        self.n = len(leaf_links)
        self._subunits = tuple(subunits)
        self._leaf_links = tuple(link for _, link in leaf_links)
        self._subunit_links = tuple(subunit_links)

    @staticmethod
    def _walk(item, subunits: list, subunit_links: list, leaf_links: list) -> tuple[bool, int]:
        """``item`` as a child: (is subunit, subunit number or leaf index), its subunits appended.

        A method, not a closure over the lists: a closure that calls itself is a
        reference cycle, which keeps the lists alive until the cycle collector runs.
        """
        if isinstance(item, int):
            return False, item
        if len(item) not in (2, 3):
            raise ValueError(f"subunit arity must be 2 or 3, got {len(item)}")
        children = tuple(ConcatTree._walk(child, subunits, subunit_links, leaf_links) for child in item)
        uid = len(subunits)
        subunits.append(children)
        subunit_links.append(None)
        for slot, (is_subunit, i) in enumerate(children):
            if is_subunit:
                subunit_links[i] = (uid, slot)
            else:
                leaf_links.append((i, (uid, slot)))
        return True, uid

    def internal_postorder(self) -> tuple[tuple[tuple[bool, int], ...], ...]:
        """Children of each subunit, by subunit number: (is subunit, subunit number or leaf index)."""
        return self._subunits

    def paths_to_leaves(self, leaves: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
        """Per leaf, in the order given: (subunit number, child slot taken) from the root down.

        An unknown leaf raises ``ValueError``.
        """
        for leaf in leaves:
            if not 0 <= leaf < self.n:
                raise ValueError(f"leaf {leaf} not present (n={self.n})")
        paths = []
        for leaf in leaves:
            path = [self._leaf_links[leaf]]
            while (link := self._subunit_links[path[-1][0]]) is not None:
                path.append(link)
            paths.append(tuple(reversed(path)))
        return paths


def smooth_ceiling(n: int) -> int:
    """Least m >= n of the form 2^k 3^j."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = n
    while True:
        try:
            smooth_factorization(m)
            return m
        except ValueError:
            m += 1


def smooth_factorization(n: int) -> tuple[int, int]:
    """Exponents (k, j) with n = 2^k 3^j, or a ValueError for non-smooth n."""
    k = j = 0
    r = n
    while r % 2 == 0 and r:
        r //= 2
        k += 1
    while r % 3 == 0 and r:
        r //= 3
        j += 1
    if r != 1 or n < 2:
        raise ValueError(f"{n} is not of the form 2^k 3^j with n >= 2")
    return k, j


def build_tree(n: int, labels: Sequence[int] | None = None) -> ConcatTree:
    """Balanced tree for 3-smooth n: 3-ary layers nearest the leaves, then 2-ary layers.

    ``labels`` names the leaf positions left to right; the default is 0..n-1.
    """
    k, j = smooth_factorization(n)
    level: list = list(range(n) if labels is None else labels)
    for arity in [3] * j + [2] * k:
        level = [level[i : i + arity] for i in range(0, len(level), arity)]
    return ConcatTree(level[0])


def chain_success(two_stages: int, three_stages: int) -> float:
    """Per-bit success after k two-bit and j three-bit encoding stages."""
    if two_stages < 0 or three_stages < 0:
        raise ValueError("stage counts must be nonnegative")
    return 0.5 * (1.0 + 2.0 ** (-two_stages / 2) * 3.0 ** (-three_stages / 2))


def quantum_bound(n: int) -> float:
    """Upper bound 1/2 + 1 / (2 sqrt(n)) on any n->1 quantum code."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 0.5 + 0.5 / math.sqrt(n)


def padded_lower_bound(n: int) -> float:
    """Achievable success for any n via the next 3-smooth size m: 1/2 + C_m^qm / (m 2^m).

    C_m^qm = 2^(m-1) sqrt(m), so the ratio is sqrt(m) / (2 m); dividing out the
    power of two is exact and keeps 2^m from overflowing a float at m = 1024.
    """
    m = smooth_ceiling(n)
    return 0.5 + math.sqrt(m) / (2 * m)


@dataclass(frozen=True)
class PaddedCode:
    """Balanced tree over the next 3-smooth size m >= n, for an n-bit input.

    Leaf ``b`` carries input bit ``b`` for ``b < n``; leaves ``n..m-1`` are
    constant-0 padding. A shared-seed permutation of the leaf labels can spread
    the real bits over leaf positions so every bit sees the same success profile
    in expectation; this stands in for a shared-randomness equalization step.
    """

    tree: ConcatTree


def build_padded(n: int, permute_seed: int | None = None) -> PaddedCode:
    m = smooth_ceiling(n)
    if permute_seed is None:
        return PaddedCode(build_tree(m))
    return PaddedCode(build_tree(m, np.random.default_rng(permute_seed).permutation(m).tolist()))


@dataclass(frozen=True)
class SimulationResults:
    """Successes per query, in query order; one pass draws the same ``shots`` for every query."""

    successes: tuple[int, ...]
    shots: int


def _spin_tables(arity: int) -> list[np.ndarray]:
    """Per child slot j: P(spin outcome 0 | class i, Alice bit a) at flat index 2 i + a.

    Twice the steered Born table of ``qrac.default_bases``: Alice measures the
    path along the negated class direction -A_i, and the path marginal is 1/2.
    """
    cond = 2.0 * qrac.steered_table(*qrac.default_bases(arity))[..., 0]
    return [cond[:, j].ravel() for j in range(arity)]


def simulate_range(
    tree: ConcatTree,
    bits: Sequence[int],
    queries: Sequence[int],
    seed: int,
    lo: int,
    hi: int,
) -> list[int]:
    """Successes per query among shots [lo, hi) of ``simulate``: the work of one span.

    A subunit's message is its first leaf's bit XOR the Alice bits down its
    first-child chain, and decoding a query reads the root's message plus the
    class and Alice bit of each subunit on the query's path. So the span opens
    the Alice streams of the first-child chains below the root and below every
    child of an on-path subunit, and the Bob streams of the on-path subunits,
    each once, and draws each once per block for all queries. Off-path subunits
    only pass their first child's message through. Streams are keyed per
    subunit and positioned per shot, so a stream left closed changes no other
    draw, and every query's count equals a run of that query alone.

    Shots run ``mzi.BLOCK`` at a time. A message lives until its parent consumes
    it and each query keeps one block of spin-flip parity, so scratch memory is
    O(block x (live subunits + queries)), not O(shots x subunits).
    """
    subunits = tree.internal_postorder()
    root = len(subunits) - 1
    tables = {
        arity: [mzi.thresholds(table) for table in _spin_tables(arity)]
        for arity in {len(kids) for kids in subunits}
    }
    half = mzi.thresholds(0.5)
    # on-path subunit -> child slot -> the queries whose path leaves it there
    readers: dict[int, dict[int, list[int]]] = {}
    for k, path in enumerate(tree.paths_to_leaves(queries)):
        for uid, pos in path:
            readers.setdefault(uid, {}).setdefault(pos, []).append(k)
    needed = {root}

    def chain(is_subunit: bool, uid: int) -> None:
        while is_subunit:
            needed.add(uid)
            is_subunit, uid = subunits[uid][0]

    for uid in readers:
        for child in subunits[uid]:
            chain(*child)
    order = sorted(needed)  # subunits are numbered in postorder, so children come first
    alice_gens = {uid: mzi.stream(seed, 2 * uid + _ALICE_STREAM, lo) for uid in order}
    bob_gens = {uid: mzi.stream(seed, 2 * uid + _BOB_STREAM, lo) for uid in readers}
    # each query's row starts at its own bit, so a shot succeeds where the row
    # ends equal to the root's message
    query_bits = np.array([[bits[q]] for q in queries], dtype=np.uint8)
    parity = np.empty((len(queries), min(hi - lo, mzi.BLOCK)), dtype=np.uint8)

    successes = np.zeros(len(queries), dtype=np.int64)
    for start in range(lo, hi, mzi.BLOCK):
        size = min(mzi.BLOCK, hi - start)
        flips = parity[:, :size]
        flips[...] = query_bits
        messages: dict[int, np.ndarray] = {}
        for uid in order:
            kids = subunits[uid]
            slots = readers.get(uid)
            # a leaf broadcasts its bit as a Python int; a child's message is consumed here
            ref, *rest = (
                messages.pop(i) if is_subunit else bits[i]
                for is_subunit, i in (kids if slots else kids[:1])
            )
            a = (mzi.draws(alice_gens[uid], size) < half).view(np.uint8)
            messages[uid] = ref ^ a
            if slots:
                cls = 0
                for value in rest:
                    cls = (cls << 1) | (value ^ ref)
                index = (cls << 1) | a
                x = mzi.draws(bob_gens[uid], size)
                for pos, ks in slots.items():
                    spin = (x >= tables[len(kids)][pos][index]).view(np.uint8)
                    for k in ks:
                        flips[k] ^= spin
        np.equal(flips, messages.pop(root), out=flips)
        successes += flips.sum(axis=1, dtype=np.int64)
    return successes.tolist()


def simulate(
    tree: ConcatTree,
    bits: Sequence[int],
    queries: Sequence[int],
    shots: int,
    seed: int,
    workers: int = 1,
) -> SimulationResults:
    """Shot-by-shot run of the concatenated code for one input string, per queried bit.

    Each subunit encodes bottom-up: the first child bit is the reference, the
    remaining children fix the class, and the transmitted bit is the reference
    XOR Alice's steering outcome. Decoding walks top-down, measuring the spin
    along the queried child's direction at each level and XOR-correcting with the
    received bit.

    All ``queries`` (repeats allowed) share one pass over the shots and its
    streams; each result is bit-identical to a run of that query alone.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not queries:
        raise ValueError("need at least one query")
    for query in queries:
        if not 0 <= query < tree.n:
            raise ValueError(f"query {query} out of range for n={tree.n}")
    if len(bits) != tree.n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"input must be {tree.n} bits")

    parts = mzi.map_spans(lambda lo, hi: simulate_range(tree, bits, queries, seed, lo, hi), shots, workers)
    return SimulationResults(tuple(sum(counts) for counts in zip(*parts)), shots)

