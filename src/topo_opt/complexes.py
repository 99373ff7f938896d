"""Simplicial complexes, the mod-2 boundary operator, and filtrations.

A simplex is a tuple of strictly increasing vertex ids.  A complex holds
its simplices closed under the face relation, sorted by (dimension,
lexicographic vertices) so that positions are reproducible.  It stores them
as one block per dimension, an array of vertex ids with one row per
simplex; the tuple list and the position lookup are built from the blocks
only when read.  A complete complex fills its blocks directly, with no
tuples.  A filtration attaches a real value to every simplex, monotone
along the face relation; it may carry the integer rank of each value too,
which its total order, computed once on first read of ``order`` and read
by every consumer, sorts in place of the values.
The comma-separated table format that clouds, diagrams, traces and
matchings are written in lives here too.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

Simplex = tuple[int, ...]


def as_simplex(vertices: Iterable[int]) -> Simplex:
    """Canonicalize a vertex collection into a simplex tuple.

    Vertices are sorted; duplicates and empty input are rejected.
    """
    verts = tuple(sorted(int(v) for v in vertices))
    if len(verts) == 0:
        raise ValueError("a simplex needs at least one vertex")
    if any(v < 0 for v in verts):
        raise ValueError("vertex ids must be non-negative")
    if len(set(verts)) != len(verts):
        raise ValueError(f"duplicate vertices in {verts}")
    return verts


def boundary(simplex: Simplex) -> list[Simplex]:
    """Codimension-1 faces of a simplex (empty list for a vertex).

    Over F2 the boundary chain is exactly this set of faces.
    """
    if len(simplex) == 1:
        return []
    return [simplex[:i] + simplex[i + 1 :] for i in range(len(simplex))]


def is_face(a: Simplex, b: Simplex) -> bool:
    """True if a is a proper face of b."""
    return len(a) < len(b) and set(a) <= set(b)


class SimplicialComplex:
    """A finite simplicial complex, closed under taking faces.

    The simplices are held as one block per dimension p: a start position
    and an (m, p+1) array of vertex ids, row r holding the vertices of the
    simplex at position start + r.  Positions follow the (dimension,
    lexicographic) sort, so each dimension is one contiguous run.  The tuple
    list ``simplices`` and the position lookup ``index`` are views of the
    blocks, built on first read; coboundaries, facets and vertex pairs are
    computed on first use.  Everything is kept, the complex being immutable.
    """

    def __init__(self, simplices: Iterable[Simplex]):
        closed = set()
        for s in simplices:
            s = as_simplex(s)
            for k in range(1, len(s) + 1):
                closed.update(itertools.combinations(s, k))
        ordered = sorted(closed, key=lambda s: (len(s), s))
        self._set_blocks([np.array(list(run), dtype=int)
                          for _, run in itertools.groupby(ordered, key=len)])

    @classmethod
    def _from_blocks(cls, ids: list[np.ndarray]) -> SimplicialComplex:
        """The complex whose dimension-p simplices are the rows of ids[p],
        which must be closed under faces and sorted lexicographically."""
        cx = cls.__new__(cls)
        cx._set_blocks(ids)
        return cx

    def _set_blocks(self, ids: list[np.ndarray]) -> None:
        starts = np.cumsum([0] + [len(a) for a in ids]).tolist()
        self._blocks: list[tuple[int, np.ndarray]] = list(zip(starts, ids))
        self._len: int = starts[-1]
        self._coboundary: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._facets: dict[int, np.ndarray] = {}
        self._pairs: dict[int, np.ndarray] = {}

    @cached_property
    def simplices(self) -> list[Simplex]:
        """Every simplex as a tuple, in position order."""
        return [s for _, ids in self._blocks for s in map(tuple, ids.tolist())]

    @cached_property
    def index(self) -> dict[Simplex, int]:
        """Position of every simplex."""
        return {s: i for i, s in enumerate(self.simplices)}

    def simplex(self, i: int) -> Simplex:
        """The simplex at position i, read off its block unless the whole
        list ``simplices`` has been built."""
        if not 0 <= i < self._len:
            raise IndexError(f"no simplex at position {i} of {self._len}")
        listed = self.__dict__.get("simplices")
        if listed is not None:
            return listed[i]
        start, ids = self._blocks[bisect_right(self._blocks, i, key=itemgetter(0)) - 1]
        return tuple(ids[i - start].tolist())

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(self.simplices)

    def __contains__(self, s) -> bool:
        return tuple(s) in self.index

    @property
    def dim(self) -> int:
        return len(self._blocks) - 1

    def skeleton(self, p: int) -> list[Simplex]:
        """All simplices of dimension exactly p."""
        if not 0 <= p <= self.dim:
            return []
        return list(map(tuple, self._blocks[p][1].tolist()))

    def blocks(self) -> list[tuple[int, np.ndarray]]:
        """Per dimension p, (start, vertex ids): the p-simplices are
        positions start, start+1, ... and row r of the (m, p+1) id array
        holds the vertices of simplex start + r."""
        return self._blocks

    def coboundary(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """The (p+1)-cofaces of the p-simplices in compressed-row form
        (indptr, indices), for p < dim: the cofaces of the p-simplex at
        position start + r are the positions indices[indptr[r]:indptr[r+1]],
        in increasing order.

        Each face column is written straight into one (m, p+2) array, whose
        stable argsort, floor-divided by p+2, lists the cofaces; the same
        array, shifted to positions, becomes ``facets(p+1)``.  No other array
        of that size is made, unless the vertex ids are not their own
        positions and must be searched for their ranks first."""
        if p not in self._coboundary:
            blocks = self._blocks
            (start, A), (start1, B) = blocks[p], blocks[p + 1]
            # a row of vertex ranks read as a number in base n_vertices: within
            # one dimension, lexicographic order is numeric order of the codes
            vertex_ids = blocks[0][1][:, 0]
            base = len(vertex_ids)
            dtype = np.int64 if base ** (p + 1) < 2**63 else object
            if vertex_ids[-1] != base - 1:  # ids are not their own positions
                A, B = np.searchsorted(vertex_ids, A), np.searchsorted(vertex_ids, B)
            codes = _codes(A.T, base, dtype)
            # faces[t, k]: row in A of coface t with its k-th vertex removed
            faces = np.empty((len(B), p + 2), dtype=np.intp)
            for k in range(p + 2):
                faces[:, k] = np.searchsorted(
                    codes, _codes((B[:, j] for j in range(p + 2) if j != k), base, dtype))
            flat = faces.reshape(-1)
            indptr = np.zeros(len(A) + 1, dtype=np.intp)
            np.cumsum(np.bincount(flat, minlength=len(A)), out=indptr[1:])
            cofaces = np.argsort(flat, kind="stable")
            cofaces //= p + 2
            cofaces += start1
            faces += start
            self._coboundary[p] = (indptr, cofaces)
            self._facets[p + 1] = faces
        return self._coboundary[p]

    def facets(self, q: int) -> np.ndarray:
        """The codimension-1 faces of the q-simplices, for 1 <= q <= dim, as
        an (m, q+1) array of positions: row r holds the faces of the
        q-simplex at position start + r, column k the face without its k-th
        vertex (the order of ``boundary``).  Built with ``coboundary(q-1)``."""
        if q not in self._facets:
            self.coboundary(q - 1)
        return self._facets[q]

    def vertex_pairs(self, q: int) -> np.ndarray:
        """The vertex pairs of the q-simplices, for 1 <= q <= dim, as edges:
        row k of the (C(q+1, 2), m) array holds the k-th pair, in
        lexicographic order, of every q-simplex, as an offset into the edge
        block (position n_vertices + offset)."""
        if q not in self._pairs:
            vertex_ids = self._blocks[0][1][:, 0]
            nv, ids = len(vertex_ids), self._blocks[q][1].T
            if vertex_ids[-1] != nv - 1:  # ids are not their own positions
                ids = np.searchsorted(vertex_ids, ids)
            pairs = list(itertools.combinations(range(q + 1), 2))
            out = np.empty((len(pairs), ids.shape[1]), dtype=np.intp)
            if len(self._blocks[1][1]) == nv * (nv - 1) // 2:
                # every vertex pair is an edge; before {a, b} come the
                # nv - 1 - c edges {c, .} of each c < a and the b - a - 1
                # edges {a, c} with c < b (the search below costs 3x more)
                a = np.arange(nv)
                first = a * (2 * nv - a - 3) // 2 - 1
                for row, (j, k) in zip(out, pairs):
                    # ids are in range: "clip" changes nothing, and unlike
                    # "raise" it writes to row without a buffer
                    np.take(first, ids[j], out=row, mode="clip")
                    row += ids[k]
            else:
                # the code a * nv + b of an edge increases with its offset
                codes = np.searchsorted(vertex_ids, self._blocks[1][1]) @ [nv, 1]
                for row, (j, k) in zip(out, pairs):
                    np.multiply(ids[j], nv, out=row)
                    row += ids[k]
                    row[:] = np.searchsorted(codes, row)
            self._pairs[q] = out
        return self._pairs[q]

    def cofaces(self, s: Simplex) -> list[Simplex]:
        """Codimension-1 cofaces of s within the complex."""
        i, p = self.index[s], len(s) - 1
        if p >= self.dim:
            return []
        indptr, indices = self.coboundary(p)
        r = i - self._blocks[p][0]
        return list(map(self.simplices.__getitem__, indices[indptr[r]:indptr[r + 1]].tolist()))

    def n_vertices(self) -> int:
        return len(self._blocks[0][1])


def _codes(columns, base: int, dtype) -> np.ndarray:
    """Each row of the given digit columns, most significant first, read as
    a number in base ``base``: one running sum, scaled and added to in
    place, so no array of all the digits is made."""
    columns = iter(columns)
    code = np.array(next(columns), dtype=dtype)
    for col in columns:
        code *= base
        code += col.astype(dtype, copy=False)
    return code


def build_complex(simplices: Iterable[Sequence[int]], max_dim: int | None = None) -> SimplicialComplex:
    """Build a complex as the face closure of the given simplices.

    ``max_dim`` discards input simplices above that dimension before closing.
    """
    sims = [as_simplex(s) for s in simplices]
    if max_dim is not None:
        sims = [s for s in sims if len(s) - 1 <= max_dim]
    if not sims:
        raise ValueError("cannot build an empty complex")
    return SimplicialComplex(sims)


def complete_complex(n_points: int, max_dim: int) -> SimplicialComplex:
    """The full complex on the vertices 0, ..., n_points - 1, truncated at
    max_dim (and at n_points - 1, the dimension of the full simplex).

    Each block is emitted in lexicographic order, the order of the
    combinatorial number system (Bauer, Ripser, 2021): the (p+1)-subsets
    that start at vertex a are a followed by each p-subset of a+1, ...,
    n_points - 1, and those are the last C(n_points - 1 - a, p) rows of the
    block below.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if max_dim < 0:
        raise ValueError(f"max_dim must be non-negative, got {max_dim}")
    ids = [np.arange(n_points)[:, None]]
    for p in range(1, min(max_dim, n_points - 1) + 1):
        below = ids[-1]
        block = np.empty((math.comb(n_points, p + 1), p + 1), dtype=below.dtype)
        end = 0
        for a in range(n_points - p):
            count = math.comb(n_points - 1 - a, p)
            block[end:end + count, 0] = a
            block[end:end + count, 1:] = below[len(below) - count:]
            end += count
        ids.append(block)
    return SimplicialComplex._from_blocks(ids)


def triangulated_torus() -> SimplicialComplex:
    """The 9-vertex triangulated torus (3x3 periodic grid, 27 edges, 18 triangles)."""
    tris = []
    v = lambda i, j: 3 * (i % 3) + (j % 3)
    for i in range(3):
        for j in range(3):
            a, b, c, d = v(i, j), v(i, j + 1), v(i + 1, j), v(i + 1, j + 1)
            tris.append((a, b, d))
            tris.append((a, c, d))
    return build_complex(tris)


class NotMonotoneError(ValueError):
    """A filtration value below the value of one of the simplex's faces."""


class Filtration:
    """A monotone real-valued function on the simplices of a complex.

    A family may hand over ``rank`` as well: the dense rank of every value,
    equal values getting equal ranks, in an unsigned integer array.  It is
    order-isomorphic to the values, so the total order sorts it in their
    place; numpy radix-sorts keys of 16 bits or fewer.

    ``order`` is computed on first read and shared by every consumer, so a
    filtration's values and ranks must not change once it is built: the
    families hand over arrays they do not keep.
    """

    def __init__(self, complex: SimplicialComplex, values, check: bool = True,
                 rank: np.ndarray | None = None):
        self.complex = complex
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (len(complex),):
            raise ValueError(
                f"expected {len(complex)} values, got shape {self.values.shape}"
            )
        if rank is not None and rank.shape != self.values.shape:
            raise ValueError(f"expected {len(complex)} ranks, got shape {rank.shape}")
        self.rank = rank
        if check:
            self.check_monotone()

    def check_monotone(self) -> None:
        """Raise NotMonotoneError naming the first simplex, in complex order,
        with a face of larger value, and the first such face."""
        cx = self.complex
        for q, (start, _) in enumerate(cx.blocks()[1:], start=1):
            faces = cx.facets(q)
            own = self.values[start:start + len(faces)]
            bad = np.flatnonzero(self.values[faces] > own[:, None])
            if len(bad):
                r, k = divmod(int(bad[0]), q + 1)
                s = cx.simplex(start + r)
                f = cx.simplex(int(faces[r, k]))
                raise NotMonotoneError(f"filtration not monotone: f({f}) > f({s})")

    @cached_property
    def order(self) -> np.ndarray:
        """The total order, read-only: a stable argsort of the ranks, or of
        the values if the family gave none.  It breaks ties in the complex's
        (dimension, lexicographic) order and puts NaN last."""
        order = np.argsort(self.values if self.rank is None else self.rank, kind="stable")
        order.flags.writeable = False
        return order

    def value(self, s: Simplex) -> float:
        return float(self.values[self.complex.index[tuple(s)]])

    def __len__(self) -> int:
        return len(self.complex)


class OrderingSignature:
    """The tie-broken total simplex order; identifies an ordering stratum.

    Two parameter points are ordering-equivalent exactly when their
    signatures compare equal.  ``tied`` flags a boundary stratum (two
    face-unrelated simplices share a value) and does not enter equality.
    Equality and hashing read the bytes of the order's index array; the
    tuple ``order`` is built on first read.
    """

    def __init__(self, order, tied: bool = False):
        self._key = np.asarray(order, dtype=np.intp).tobytes()
        self.tied = tied

    @cached_property
    def order(self) -> tuple[int, ...]:
        return tuple(self.indices().tolist())

    def indices(self) -> np.ndarray:
        """The order as a read-only index array."""
        return np.frombuffer(self._key, dtype=np.intp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderingSignature):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"OrderingSignature({len(self._key) // np.intp().itemsize} simplices, tied={self.tied})"


def total_order(filtration: Filtration) -> OrderingSignature:
    """Deterministic total order: by (value, dimension, lexicographic
    vertices), the filtration's own ``order``, flagged ``tied`` when it has
    a free tie.

    Faces always precede cofaces: a face has value <= its coface and
    strictly smaller dimension, so the key is a valid refinement.
    """
    tied = next(_free_ties(filtration), None) is not None
    return OrderingSignature(filtration.order, tied)


def _free_ties(filtration: Filtration) -> Iterator[tuple[int, int]]:
    """Simplex indices (a, b) adjacent in the filtration's order whose
    values are equal and neither of which is a face of the other, lazily and
    in order: the candidate stratum boundaries.  Equal values have equal
    ranks (NaNs share one but are not equal), so the values tell the ties.
    The order is scanned 4096 adjacent pairs at a time, so a caller that
    stops at the first free tie reads little more than it needs."""
    simplex = filtration.complex.simplex
    values, order = filtration.values, filtration.order
    chunk = 4096
    for lo in range(0, len(order) - 1, chunk):
        at = order[lo:lo + chunk + 1]
        v = values[at]
        for k in np.flatnonzero(v[1:] == v[:-1]):
            a, b = int(at[k]), int(at[k + 1])
            sa, sb = simplex(a), simplex(b)
            if not (is_face(sa, sb) or is_face(sb, sa)):
                yield a, b


# ---------------------------------------------------------------------------
# serialization: one simplex per line, vertex ids space-separated, with the
# filtration value as the final column when present.


def write_complex(path, complex: SimplicialComplex, filtration: Filtration | None = None) -> None:
    with open(path, "w") as fh:
        for i, s in enumerate(complex.simplices):
            cols = [str(v) for v in s]
            if filtration is not None:
                cols.append(repr(float(filtration.values[i])))
            fh.write(" ".join(cols) + "\n")


def read_complex(path) -> tuple[SimplicialComplex, np.ndarray | None]:
    """Read a complex file; returns (complex, values or None).

    The last field of a line is the value exactly when it does not parse as
    an int (``write_complex`` writes 1.0, nan, inf).  Values, when present,
    are re-aligned to the complex's canonical simplex order.  Missing faces
    are an error only if values are present (closure cannot invent them);
    without values the closure is taken.
    """
    rows: list[tuple[Simplex, float | None]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                int(parts[-1])
            except ValueError:
                rows.append((as_simplex(int(p) for p in parts[:-1]), float(parts[-1])))
            else:
                rows.append((as_simplex(int(p) for p in parts), None))
    has_vals = any(v is not None for _, v in rows)
    if has_vals and not all(v is not None for _, v in rows):
        raise ValueError("mixed lines with and without filtration values")
    cx = SimplicialComplex([s for s, _ in rows])
    if not has_vals:
        return cx, None
    if len({s for s, _ in rows}) != len(cx):
        raise ValueError("file is not closed under faces but carries values")
    vals = np.empty(len(cx))
    for s, v in rows:
        vals[cx.index[s]] = v
    return cx, vals


# ---------------------------------------------------------------------------
# comma-separated tables (clouds, diagrams, traces, matchings): a header line
# of column names, then one row per line with every number written to 17
# significant digits, which round-trips float64 exactly.


def write_table(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_table(path, first_column: str) -> list[list[str]]:
    """The fields of every data row; blank lines, '#' comments and header
    lines (those starting with ``first_column``) are skipped."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith(("#", first_column)):
                rows.append(line.split(","))
    return rows
