"""Undirected, unweighted graphs and their normalized operators.

The graph model is deliberately small: a node count, a set of unordered
edges, and a flag saying whether every node carries a self-loop.  Graphs are
immutable after construction and degree-0 nodes are rejected outright, since
the normalized operators D^{-1/2} A D^{-1/2} are undefined there.

Random generation is seeded (NumPy ``default_rng``, i.e. the PCG64 stream)
and draws candidate pairs in lexicographic order, so a (spec, seed) pair
reproduces the same graph on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateGraphError,
    FileParseError,
    InvalidSpecError,
)

__all__ = [
    "Graph",
    "GraphSpec",
    "generate_graph",
    "parse_edge_list",
    "format_edge_list",
    "normalized_adjacency",
    "normalized_laplacian",
]

GENERATION_RETRIES = 100
INDEX_MAX = int(np.iinfo(np.int64).max)  # node indices and counts are int64 arrays


def _index_array(values, count: Optional[int] = None) -> np.ndarray:
    """Node indices as an int64 array, from an array-like or, given their
    count, an iterator; an index past int64 is an invalid spec."""
    try:
        if count is None:
            return np.array(values, dtype=np.int64)
        return np.fromiter(values, dtype=np.int64, count=count)
    except OverflowError as exc:
        raise InvalidSpecError(f"node index outside the int64 range: {exc}") from exc


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph.

    Attributes
    ----------
    n : int
        Node count; node indices are 0..n-1.
    edges : frozenset[tuple[int, int]]
        Unordered pairs stored as (min, max).  When ``self_loops`` is true
        the pairs (i, i) for every node are included.
    self_loops : bool
        True iff every node carries a self-loop.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    self_loops: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpecError(f"graph needs at least one node, got n={self.n}")
        if self.n > INDEX_MAX:
            raise InvalidSpecError(f"node count n={self.n} exceeds the int64 index range")
        e = self._edge_array
        loop = e[:, 0] == e[:, 1]
        if self.self_loops and not np.array_equal(np.sort(e[loop, 0]), np.arange(self.n)):
            raise InvalidSpecError("self_loops=True requires a loop on every node")
        if not self.self_loops and loop.any():
            raise InvalidSpecError(
                "loop pairs are controlled by the self_loops flag, not the edge set"
            )
        bad = (e[:, 0] < 0) | (e[:, 0] > e[:, 1]) | (e[:, 1] >= self.n)
        if bad.any():  # the first in the edge set's order
            i, j = e[np.argmax(bad)].tolist()
            raise InvalidSpecError(f"edge ({i},{j}) out of range for n={self.n}")
        deg = self.degrees()
        if np.any(deg == 0):
            bad = int(np.argmin(deg))
            raise DegenerateGraphError(f"node {bad} has degree 0")

    @staticmethod
    def from_edges(n: int, pairs: Iterable[Sequence[int]], self_loops: bool = False) -> "Graph":
        """Canonicalize ``pairs`` (dedupe, orient as (min, max)) into a Graph.

        ``pairs`` may also be an (m, 2) integer array.  Loop pairs (i, i)
        must not appear in it; node-wide self-loops are requested through
        the flag instead.
        """
        e = _index_array(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        e = e.reshape(-1, 2) if e.size == 0 else e
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"expected (i, j) pairs, got an array of shape {e.shape}")
        loop = e[:, 0] == e[:, 1]
        if loop.any():
            i = int(e[np.argmax(loop), 0])
            raise InvalidSpecError(f"explicit loop pair ({i},{i}); use self_loops=True instead")
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        canon = set(zip(lo.tolist(), hi.tolist()))
        if self_loops:
            canon.update((i, i) for i in range(n))
        return Graph(n=n, edges=frozenset(canon), self_loops=self_loops)

    @cached_property
    def _edge_array(self) -> np.ndarray:
        """Edges as a read-only (m, 2) int array of (min, max) pairs, loops
        included, in the edge set's order."""
        e = _index_array(chain.from_iterable(self.edges), 2 * len(self.edges)).reshape(-1, 2)
        e.setflags(write=False)
        return e

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix A (float64, exactly symmetric)."""
        e = self._edge_array
        a = np.zeros((self.n, self.n))
        a[e[:, 0], e[:, 1]] = 1.0
        a[e[:, 1], e[:, 0]] = 1.0
        return a

    def degrees(self) -> np.ndarray:
        """Per-node degrees d_i = sum_j a_ij (a self-loop counts once)."""
        e = self._edge_array
        ends = np.concatenate([e[:, 0], e[e[:, 0] != e[:, 1], 1]])
        return np.bincount(ends, minlength=self.n).astype(np.int64)

    def plain_edges(self) -> list:
        """Sorted non-loop edges, for serialization."""
        return sorted(e for e in self.edges if e[0] != e[1])


def _scaled_edges(g: Graph, sign: float) -> np.ndarray:
    """The n x n array with sign d_i d_j, d = D^{-1/2}, at both orientations of
    every edge (i, j) and +0.0 elsewhere, written into one zeroed array.
    Entries (i, j) and (j, i) are the same float product, so the result is
    symmetric to exact bit equality."""
    e, dinv = g._edge_array, 1.0 / np.sqrt(g.degrees().astype(float))
    out, values = np.zeros((g.n, g.n)), sign * (dinv[e[:, 0]] * dinv[e[:, 1]])
    out[e[:, 0], e[:, 1]] = values
    out[e[:, 1], e[:, 0]] = values
    return out


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Symmetric normalized adjacency D^{-1/2} A D^{-1/2}."""
    return _scaled_edges(g, 1.0)


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Normalized Laplacian I - D^{-1/2} A D^{-1/2} (positive semi-definite),
    built in its own n x n array: -d_i d_j on the edges, then 1 added on the
    diagonal."""
    lap = _scaled_edges(g, -1.0)
    lap.reshape(-1)[:: g.n + 1] += 1.0
    return lap


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for a graph: a named family plus its parameters.

    kind is one of ``cycle``, ``path``, ``complete_bipartite``,
    ``erdos_renyi``, ``sbm``, ``file``.  Unused parameters may stay None.
    """

    kind: str
    n: Optional[int] = None
    m: Optional[int] = None
    sizes: Optional[tuple] = None
    p: Optional[float] = None
    p_in: Optional[float] = None
    p_out: Optional[float] = None
    seed: int = 0
    self_loops: bool = False
    path: Optional[str] = None


def _check_prob(name: str, value) -> float:
    if value is None or not (0.0 <= float(value) <= 1.0):
        raise InvalidSpecError(f"{name} must lie in [0,1], got {value!r}")
    return float(value)


def _draw_edges(rng: np.random.Generator, n: int, prob_of_pairs) -> np.ndarray:
    """One uniform draw per pair (i, j), i < j, in lexicographic order; the
    pairs whose draw falls below ``prob_of_pairs(rows, cols)`` are the rows
    of the (m, 2) edge array."""
    rows, cols = np.triu_indices(n, k=1)
    keep = rng.random(rows.shape[0]) < prob_of_pairs(rows, cols)
    return np.stack([rows[keep], cols[keep]], axis=1)


def _retry_random(build, self_loops: bool) -> Graph:
    """Re-draw a random graph until no node has degree 0."""
    last_error = None
    for _ in range(GENERATION_RETRIES):
        try:
            return Graph.from_edges(*build(), self_loops=self_loops)
        except DegenerateGraphError as exc:
            last_error = exc
    raise DegenerateGraphError(
        f"no draw with minimum degree 1 in {GENERATION_RETRIES} retries: {last_error}"
    )


def generate_graph(spec: GraphSpec) -> Graph:
    """Build the graph described by ``spec``.

    Deterministic for a fixed (spec, seed).  Random kinds are re-drawn (up to
    100 times) until every node has degree >= 1.
    """
    kind = spec.kind
    if kind == "cycle":
        n = spec.n or 0
        if n < 3:
            raise InvalidSpecError(f"cycle needs n >= 3 (n=2 duplicates an edge), got {n}")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], spec.self_loops)
    if kind == "path":
        n = spec.n or 0
        if n < 1:
            raise InvalidSpecError(f"path needs n >= 1, got {n}")
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], spec.self_loops)
    if kind == "complete_bipartite":
        m, n = spec.m or 0, spec.n or 0
        if m < 1 or n < 1:
            raise InvalidSpecError(f"complete_bipartite needs m, n >= 1, got m={m}, n={n}")
        return Graph.from_edges(
            m + n, [(i, m + j) for i in range(m) for j in range(n)], spec.self_loops
        )
    if kind == "erdos_renyi":
        n = spec.n or 0
        if n < 1:
            raise InvalidSpecError(f"erdos_renyi needs n >= 1, got {n}")
        p = _check_prob("p", spec.p)
        rng = np.random.default_rng(spec.seed)
        return _retry_random(
            lambda: (n, _draw_edges(rng, n, lambda rows, cols: p)), spec.self_loops
        )
    if kind == "sbm":
        sizes = tuple(int(s) for s in (spec.sizes or ()))
        if len(sizes) < 2:
            raise InvalidSpecError(f"sbm needs >= 2 communities, got sizes={sizes}")
        if any(s < 1 for s in sizes):
            raise InvalidSpecError(f"sbm community sizes must be >= 1, got {sizes}")
        p_in = _check_prob("p_in", spec.p_in)
        p_out = _check_prob("p_out", spec.p_out)
        total = sum(sizes)
        community = np.repeat(np.arange(len(sizes)), sizes)
        rng = np.random.default_rng(spec.seed)

        def prob_of(rows, cols):
            return np.where(community[rows] == community[cols], p_in, p_out)

        return _retry_random(lambda: (total, _draw_edges(rng, total, prob_of)), spec.self_loops)
    if kind == "file":
        if not spec.path:
            raise InvalidSpecError("kind=file requires a path")
        try:
            with open(spec.path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise FileParseError(f"cannot read {spec.path}: {exc}") from exc
        return parse_edge_list(text, self_loops=spec.self_loops)
    raise InvalidSpecError(f"unknown graph kind {kind!r}")


def parse_edge_list(text: str, self_loops: bool = False) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Each non-comment line is ``u v`` (decimal node indices).  Lines starting
    with '#' and blank lines are ignored.  An optional first line ``n=<int>``
    fixes the node count; otherwise n = 1 + max index.  Duplicate pairs
    collapse.  Loop lines ``u u`` are rejected: node-wide self-loops are a
    caller-level flag, not file content.
    """
    n_declared = None
    pairs = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n=") and not saw_content:
            try:
                n_declared = int(line[2:])
            except ValueError as exc:
                raise FileParseError(f"line {lineno}: bad header {line!r}") from exc
            saw_content = True
            continue
        saw_content = True
        tokens = line.split()
        if len(tokens) != 2:
            raise FileParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise FileParseError(f"line {lineno}: non-integer token in {line!r}") from exc
        if u < 0 or v < 0:
            raise FileParseError(f"line {lineno}: negative node index in {line!r}")
        if u == v:
            raise FileParseError(
                f"line {lineno}: loop edge {u} {v}; self-loops are requested via a flag"
            )
        pairs.append((u, v))
    if not pairs and n_declared is None:
        raise FileParseError("edge list contains no edges and no n=<int> header")
    max_index = max(max(p) for p in pairs) if pairs else -1
    n = n_declared if n_declared is not None else max_index + 1
    if n <= max_index:
        raise FileParseError(f"header n={n} but node index {max_index} appears")
    return Graph.from_edges(n, pairs, self_loops=self_loops)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph to the edge-list format accepted by parse_edge_list.

    Self-loops are not written; re-apply them via the self_loops flag when
    reloading.
    """
    lines = [f"n={g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.plain_edges())
    return "\n".join(lines) + "\n"
