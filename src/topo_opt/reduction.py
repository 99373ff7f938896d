"""Boundary-matrix reduction and persistence pairing.

Every column is a Python-int bitset, bit r set for row r: a column addition
is one xor and the lowest one is ``bit_length() - 1``, both in C, where a
set column would need a scan for its maximum after every addition.

One loop, ``_reduce``, reduces every column in the package: a column
against a prefix of the reduced columns, with a column it needs that is not
yet reduced built by the matrix's column builder and reduced first.
``_reduce_columns`` drives it left to right and claims each pivot, so the
reduction of a whole matrix, a column reduced on demand for a moving set
and a basis V, U = V^-1 are the same loop.  Columns are built one at a time
from the complex's facet and coboundary index arrays (a face column with
``_bitset``, a coboundary column with ``_cocolumn``), so no raw matrix is
held whole:

- Homology (``reduce``): R = D * V over F2 with R reduced (distinct lowest
  ones), in positions of the total order, every column reduced at once.
  It is the reference the pairing and the moving sets are checked
  against.  A ``ReducedDecomposition`` serves the moving sets through two
  ``_PairedMatrix`` forms, D (whose reduced columns are R) and D's
  anti-transpose (reduced on demand), each with a basis built on first
  read; only the fast moving sets read a basis.  Big-step's decomposition
  is seeded from the pairing of ``persistence_pairs`` instead, with every
  pivot known and no column reduced: a moving set reduces a death column
  of D only when it first needs one, to R's column there.
- Pairing only (``persistence_pairs``, and through it ``build_diagram``
  and ``betti_numbers``): dimension 0 by union-find under the elder rule,
  with no vertex cocolumn, then cohomology with clearing, which reduces the
  coboundary matrix one dimension at a time from dimension 1 and skips the
  columns already known to be paired.  Apparent pairs (a simplex and its
  earliest coface, when the simplex is that coface's latest face) are found
  with numpy and seed the pivots; only the other columns are reduced.

Both paths work in positions of the filtration's own ``order``, read
through its ``inverse_order`` (each computed once per filtration and shared,
so neither path inverts or sorts an order), refuse a NaN filtration value,
which the order puts last, and hand their pairing to ``_pairing``, which
reads the births block by block into per-dimension arrays of complex
positions (a ``PersistencePairing``).  The unpaired simplices are listed
only on first read of ``essential``, in filtration order off the pairing's
order and partner array, and ``build_diagram`` reads the filtration values
at them only on first read of the diagram's ``essential``: the losses read
ordinary points, and at the paper's n = 100 + 1 the top dimension alone has
161,700 unpaired triangles.  The simplex lists are built on first read too.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter

import numpy as np

from .complexes import (
    Filtration,
    Simplex,
    SimplicialComplex,
    read_table,
    write_table,
)


@dataclass(eq=False)
class PersistencePairing:
    """Simplex-level pairing, held as positions in ``complex`` per homology
    dimension: births[p][k] is paired with deaths[p][k], the pairs in birth
    order.  ``order`` lists the complex positions in filtration order,
    ``inverse_order`` maps one to its place there, and ``partner`` maps a
    position to the one paired with it, -1 when unpaired.
    essential[p], the unpaired (essential) p-simplices in filtration order,
    is built from those two on first read, and so are the simplex lists
    ``pairs`` and ``unpaired``."""

    complex: SimplicialComplex
    births: dict[int, np.ndarray]
    deaths: dict[int, np.ndarray]
    order: np.ndarray
    inverse_order: np.ndarray
    partner: np.ndarray

    @cached_property
    def essential(self) -> dict[int, np.ndarray]:
        """The unpaired positions, split by block; dimensions come in order
        of their first unpaired simplex.  The order already lists them in
        filtration order, so nothing is sorted."""
        unpaired = self.order[self.partner[self.order] < 0]
        found, first = {}, {}
        for p, (start, ids) in enumerate(self.complex.blocks()):
            at = (unpaired >= start) & (unpaired < start + len(ids))
            if at.any():
                found[p], first[p] = unpaired[at], at.argmax()
        return {p: found[p] for p in sorted(found, key=first.get)}

    @cached_property
    def pairs(self) -> dict[int, list[tuple[Simplex, Simplex]]]:
        cx = self.complex
        return {p: list(zip(_simplices_at(cx, bs, p), _simplices_at(cx, self.deaths[p], p + 1)))
                for p, bs in self.births.items()}

    @cached_property
    def unpaired(self) -> dict[int, list[Simplex]]:
        return {p: list(_simplices_at(self.complex, us, p)) for p, us in self.essential.items()}

    def _unpaired_counts(self) -> list[int]:
        """The number of unpaired simplices of each dimension, counted off
        ``partner`` block by block without listing them."""
        return [int(np.count_nonzero(self.partner[start:start + len(ids)] < 0))
                for start, ids in self.complex.blocks()]

    def dims(self):
        return sorted(set(self.births) | {p for p, k in enumerate(self._unpaired_counts()) if k})


class PersistenceDiagram:
    """Per-dimension ordinary points (m,2) and essential births (k,).

    ``pairs``/``essential_simplices`` stay row-aligned with the arrays so a
    diagram gradient can be pushed back through the filtration map.  A
    diagram made by ``build_diagram`` reads the filtration values at its
    pairing's essentials on first read of ``essential``.
    """

    def __init__(self, points: dict[int, np.ndarray], essential: dict[int, np.ndarray] | None,
                 pairs: dict[int, list[tuple[Simplex, Simplex]]] | None = None,
                 pairing: PersistencePairing | None = None):
        self.points = points
        self.pairs = {} if pairs is None else pairs
        self.pairing = pairing
        if essential is not None:
            self.essential = essential

    @cached_property
    def essential(self) -> dict[int, np.ndarray]:
        return {p: self._values[us] for p, us in self.pairing.essential.items()}

    @property
    def essential_simplices(self) -> dict[int, list[Simplex]]:
        """The pairing's unpaired simplices, built on first read."""
        return self.pairing.unpaired if self.pairing is not None else {}

    def ordinary(self, dim: int) -> np.ndarray:
        return self.points.get(dim, np.empty((0, 2)))

    def betti(self, dim: int) -> int:
        return len(self.essential.get(dim, ()))

    def dims(self):
        return sorted(set(self.points) | set(self.essential))


def _lowest(col: int) -> int:
    """The lowest one of a bitset column: its highest set bit, -1 for zero."""
    return col.bit_length() - 1


def _bits(col: int):
    """The set bits of a bitset column, from the top one down."""
    while col:
        low = col.bit_length() - 1
        yield low
        col ^= 1 << low


def _bitset(rows: list[list[int]], c: int) -> int:
    """Column c as a bitset, the rows rows[c] set."""
    col = 0
    for r in rows[c]:
        col |= 1 << r
    return col


def _simplices_at(cx: SimplicialComplex, positions: np.ndarray, p: int):
    """The p-simplices at the given complex positions, as tuples: one block
    slice per call, not one lookup per simplex, so the complex's tuple list
    need not exist."""
    start, ids = cx.blocks()[p]
    return map(tuple, ids[positions - start].tolist())


def _reduce(col: int, bound: int, extra: dict[int, int], pivot: dict[int, int],
            done: list[int | None], raw, basis=None) -> int:
    """The one column reduction: col, as column ``bound``, reduced against
    the reduced columns before ``bound`` (``pivot`` maps a lowest one to its
    column, ``done`` holds the reduced columns) and the ``extra`` columns
    keyed by their lowest ones, until its lowest one is claimed by neither.

    A reduced column it needs that is still None in ``done`` is built by
    ``raw`` and reduced first, the same way against the columns before it,
    without recursion: every lowest one met on the way is claimed by an
    earlier column, so that is the column of a full left-to-right
    reduction.  With a basis (V columns, U rows), each addition of column k
    to column ``bound`` is also made in V and U."""
    waiting = []
    while True:
        while col:
            low = col.bit_length() - 1
            k = pivot.get(low, bound)  # an unclaimed lowest one is not before bound
            if k < bound:
                reduced = done[k]
                if reduced is None:
                    waiting.append((col, bound, extra))
                    col, bound, extra = raw(k), k, {}
                    continue
                col ^= reduced
                if basis is not None:
                    V, U = basis
                    V[bound] ^= V[k]
                    U[k] ^= U[bound]
            elif low in extra:
                col ^= extra[low]
            else:
                break
        if not waiting:
            return col
        done[bound] = col
        col, bound, extra = waiting.pop()


def _reduce_columns(raw, done: list[int | None], pivot: dict[int, int], start: int = 0,
                    basis=None) -> dict[int, int]:
    """Left-to-right reduction of columns ``start`` onwards of ``done``,
    column j built as raw(j) when the loop reaches it and reduced by
    ``_reduce``; a nonzero column claims its lowest one in ``pivot``, which
    may be seeded with columns before ``start``.  Returns the pivots."""
    for j in range(start, len(done)):
        col = done[j] = _reduce(raw(j), j, {}, pivot, done, raw, basis)
        if col:
            pivot[col.bit_length() - 1] = j
    return pivot


class _PairedMatrix:
    """A boundary matrix in a decomposition's order whose pairs are known:
    D itself, or D's anti-transpose, which has the same pairs reversed (de
    Silva, Morozov and Vejdemo-Johansson, Dualities in persistent
    (co)homology, 2011).

    ``index`` maps a position of the order to its column and back: the
    identity for D, q -> n-1-q for the anti-transpose.  ``raw(c)`` builds
    column c as a Python-int bitset, its rows the columns of the faces (D)
    or cofaces (anti-transpose) of its simplex.  ``pivot`` maps a lowest one
    to its column, and ``reduce_prefix`` reduces a column against a prefix
    of the reduced columns.  ``columns`` keeps the reduced columns, None for
    one not yet reduced; D's are the decomposition's own R, so D is never
    reduced twice.  ``basis`` (V columns, U = V^-1 rows, as bitsets) is
    built on first read.  The matrix holds no reference to the
    decomposition."""

    def __init__(self, raw, pivot: dict[int, int], columns: list[int | None], flip: bool):
        self.n, self.raw = len(columns), raw
        self.pivot, self.columns, self.flip = pivot, columns, flip

    def index(self, q: int) -> int:
        return self.n - 1 - q if self.flip else q

    def reduce_prefix(self, col: int, bound: int, extra: dict[int, int]) -> int:
        """col reduced against the reduced columns before ``bound`` and the
        ``extra`` columns keyed by their lowest ones (see ``_reduce``)."""
        return _reduce(col, bound, extra, self.pivot, self.columns, self.raw)

    @cached_property
    def basis(self) -> tuple[list[int], list[int]]:
        """(V columns, U rows) of one reduction with a basis, U = V^-1; it
        fills ``columns`` (D's R is rewritten with the same values)."""
        V, U = [1 << j for j in range(self.n)], [1 << j for j in range(self.n)]
        _reduce_columns(self.raw, self.columns, {}, basis=(V, U))
        return V, U


class ReducedDecomposition:
    """Reduced decomposition of a filtration's boundary matrix, in positions
    of its total order (``order`` maps one to its complex index,
    ``inverse_order`` back): ``faces[q]`` and ``cofaces(q)`` are the face
    and coface positions of position q, read off the complex's index arrays.
    ``pivot`` maps each birth position to its death position; ``is_death``
    and ``partner`` read it and its inverse, never R, so a query reduces
    nothing (R[j] is nonzero exactly at a death j, its lowest one j's birth).

    ``reduce`` reduces every column of R at once.  The form big-step uses
    is seeded from the pairing of ``persistence_pairs`` instead
    (``_from_pairing``): its R starts as None everywhere, and a column is
    reduced only when a moving set first needs it, to the column of the
    full reduction.  Otherwise neither form changes; ``simplices``, ``D``
    and ``anti_D`` are built on first read."""

    def __init__(self, filtration: Filtration):
        _refuse_nan(filtration)
        self._lay_out(filtration)
        self.pivot = _reduce_columns(partial(_bitset, self.faces), self.R, {})

    @classmethod
    def _from_pairing(cls, filtration: Filtration, pairing: PersistencePairing):
        """The decomposition of ``filtration`` with nothing reduced, its
        pivots read off ``pairing``, that of ``persistence_pairs`` on the
        same filtration, which has read the same order and already refused
        a NaN value.  Its pivots are all known, so ``_reduce`` only ever
        reaches death columns and reduces each like the full left-to-right
        reduction."""
        dec = cls.__new__(cls)
        dec._lay_out(filtration)
        dec.pivot = {}
        for p, births in pairing.births.items():
            dec.pivot.update(zip(dec.inverse_order[births].tolist(),
                                 dec.inverse_order[pairing.deaths[p]].tolist()))
        return dec

    def _lay_out(self, filtration: Filtration) -> None:
        """The filtration's order and inverse, its values and the face lists."""
        cx = self.complex = filtration.complex
        order = self.order = filtration.order
        inverse = self.inverse_order = filtration.inverse_order
        self.values: np.ndarray = filtration.values[order]
        self.cofaces = partial(_cofaces, cx, order, inverse)
        by_index = [[]] * cx.n_vertices()
        for p in range(1, cx.dim + 1):
            by_index += inverse[cx.facets(p)].tolist()
        self.faces: list[list[int]] = list(map(by_index.__getitem__, order.tolist()))
        self.R: list[int | None] = [None] * len(self.faces)

    @cached_property
    def _low(self) -> dict[int, int]:
        """Death position -> birth position, the inverse of ``pivot``."""
        return {j: low for low, j in self.pivot.items()}

    @cached_property
    def simplices(self) -> list[Simplex]:
        """The simplices in filtration order."""
        return list(map(self.complex.simplices.__getitem__, self.order.tolist()))

    @cached_property
    def D(self) -> _PairedMatrix:
        """The boundary matrix, reduced: its reduced columns are R."""
        return _PairedMatrix(partial(_bitset, self.faces), self.pivot, self.R, flip=False)

    @cached_property
    def anti_D(self) -> _PairedMatrix:
        """The anti-transposed boundary matrix, reduced on demand."""
        n = len(self.order)
        return _PairedMatrix(partial(_cocolumn, self.complex, self.order[::-1], self.inverse_order),
                             {n - 1 - c: n - 1 - row for row, c in self.pivot.items()},
                             [None] * n, flip=True)

    # -- queries ------------------------------------------------------------

    def position(self, s: Simplex) -> int:
        return int(self.inverse_order[self.complex.index[tuple(s)]])

    def is_death(self, i: int) -> bool:
        return i in self._low

    def partner(self, i: int) -> int | None:
        """Position paired with position i, or None if essential."""
        return self._low[i] if i in self._low else self.pivot.get(i)

    def pairing(self) -> PersistencePairing:
        partner = np.full(len(self.order), -1, dtype=np.intp)
        pairs = np.array(list(self.pivot.items()), dtype=np.intp).reshape(-1, 2)
        births, deaths = self.order[pairs.T]
        partner[births], partner[deaths] = deaths, births
        return _pairing(self.complex, self.order, self.inverse_order, partner)


def _cofaces(cx: SimplicialComplex, ids: np.ndarray, inverse: np.ndarray, c: int) -> np.ndarray:
    """The positions of the cofaces of the simplex at complex index ids[c]:
    one slice of the complex's coboundary arrays, read through the
    filtration's ``inverse_order``."""
    i, blocks = ids[c], cx.blocks()
    p = bisect_right(blocks, i, key=itemgetter(0)) - 1
    if p == cx.dim:
        return inverse[:0]
    indptr, cofaces = cx.coboundary(p)
    r = i - blocks[p][0]
    return inverse[cofaces[indptr[r]:indptr[r + 1]]]


def _cocolumn(cx: SimplicialComplex, ids: np.ndarray, inverse: np.ndarray, c: int) -> int:
    """The coboundary of the simplex at complex index ids[c] as a Python-int
    bitset, bit n-1-q set for each coface at position q (a column of the
    anti-transpose): one slice of the complex's coboundary arrays, packed."""
    e = _cofaces(cx, ids, inverse, c)
    if not len(e):
        return 0
    bits = np.zeros(len(inverse) - int(e.min()), dtype=bool)
    bits[len(inverse) - 1 - e] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def reduce(filtration: Filtration) -> ReducedDecomposition:
    """Reduce the boundary matrix of a filtration."""
    return ReducedDecomposition(filtration)


def _pairing(cx: SimplicialComplex, order: np.ndarray, inverse: np.ndarray, partner: np.ndarray):
    """The PersistencePairing of ``partner`` (complex index -> paired index,
    -1 when unpaired) under the filtration order ``order`` and its inverse
    ``inverse``, which maps a complex index to its position.  The births are
    read block by block below the top dimension, whose simplices have no
    coface: the births of dimension p are the p-simplices whose partner lies
    in the next block, sorted by position; dimensions come in order of their
    first birth.  The unpaired simplices are left to the pairing's first
    read of ``essential``."""
    births: dict[int, np.ndarray] = {}
    for p, (start, ids) in enumerate(cx.blocks()[:-1]):
        end = start + len(ids)
        found = inverse[start + np.flatnonzero(partner[start:end] >= end)]
        if len(found):
            found.sort()
            births[p] = order[found]
    births = dict(sorted(births.items(), key=lambda kv: inverse[kv[1][0]]))
    deaths = {p: partner[bs] for p, bs in births.items()}
    return PersistencePairing(cx, births, deaths, order, inverse, partner)


def _refuse_nan(filtration: Filtration) -> None:
    """Raise ValueError naming the last simplex of the filtration's order if
    its value is NaN.  The stable argsort of the values and the families'
    dense ranks both put NaN last, so this one read finds any NaN value."""
    order = filtration.order
    if len(order) and np.isnan(filtration.values[order[-1]]):
        s = filtration.complex.simplex(int(order[-1]))
        raise ValueError(f"the filtration value of simplex {s} is NaN; a diagram needs "
                         f"every value to be a number")


def _elder_merges(vertex_pos: list[int], edges) -> list[tuple[int, int]]:
    """The zero-dimensional pairs by union-find under the elder rule.

    ``edges`` yields (edge, u, v) in filtration order, u and v being the
    positions of the edge's vertices, and vertex_pos[u] is the filtration
    position of vertex u.  A component is represented by its root, its
    earliest vertex.  An edge that joins two components kills the younger
    one: it pairs with the later of the two roots, which then hangs below
    the other.  The walk stops at the (len(vertex_pos) - 1)-th merge, after
    which every edge closes a cycle.  Returns the (vertex, edge) pairs in
    the order of the merges."""
    root = list(range(len(vertex_pos)))
    pairs: list[tuple[int, int]] = []
    left = len(root) - 1
    for e, u, v in edges:
        while root[u] != u:
            root[u] = u = root[root[u]]  # path halving
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u == v:
            continue
        if vertex_pos[u] < vertex_pos[v]:
            u, v = v, u
        root[u] = v
        pairs.append((u, e))
        left -= 1
        if not left:
            break
    return pairs


def persistence_pairs(filtration: Filtration) -> PersistencePairing:
    """Persistence pairing of a filtration: union-find in dimension 0, then
    cohomology with clearing and apparent pairs.

    Dimension 0 is paired as Ripser pairs it (Bauer, Ripser, 2021): the
    edges are walked in filtration order with a union-find over the
    vertices, and an edge that joins two components pairs with the younger
    component's root (the elder rule, Edelsbrunner and Harer, Computational
    Topology, 2010).  No vertex cocolumn is built.  Above it, the coboundary
    matrix is reduced one dimension at a time, lowest first, from p = 1.
    The columns of dimension p are the p-simplices in reverse filtration
    order; a column holds the anti-indices n-1-position of the simplex's
    (p+1)-cofaces, so its pivot is the earliest coface.  A p-simplex that
    died at dimension p-1 is skipped (cleared): its column would reduce to
    zero.  A column left nonzero pairs its simplex (birth) with its pivot
    coface (death); top-dimensional simplices have no columns, and a simplex
    that is neither birth nor death is unpaired.  The pairing is that of
    the boundary-matrix reduction (de Silva, Morozov and Vejdemo-Johansson,
    Dualities in persistent (co)homology, 2011), listed in the same order:
    pairs by birth position, unpaired simplices in filtration order.

    A p-simplex sigma whose earliest coface tau has sigma as its latest face
    is an apparent pair (Bauer, Ripser, 2021): no column before sigma's holds
    tau, so sigma's column is reduced as it stands and pairs with tau.  Both
    extrema are taken over index arrays (the coboundary and the facets of
    the complex), the apparent pairs seed the pivots, and only the other
    columns are reduced; an apparent column is built only when a reduced
    column meets its pivot.

    It reads the filtration's ``inverse_order``: a column is read through it
    from the complex's coboundary slice when first needed, each column's
    earliest coface is one ``minimum.reduceat`` over the non-empty
    coboundary segments, and the edges are sorted once for both passes.
    """
    cx = filtration.complex
    n = len(cx)
    order, inverse = filtration.order, filtration.inverse_order
    _refuse_nan(filtration)
    partner = np.full(n, -1, dtype=np.intp)
    blocks = cx.blocks()
    if len(blocks) > 1:
        nv, facets = blocks[1][0], cx.facets(1)
        edges = np.argsort(inverse[nv:nv + len(facets)])
        merges = _elder_merges(inverse[:nv].tolist(),
                               zip((nv + edges).tolist(), *facets[edges].T.tolist()))
        births, deaths = np.array(merges, dtype=np.intp).reshape(-1, 2).T
        partner[births] = deaths
        partner[deaths] = births
    for p, (start, ids) in enumerate(blocks[1:-1], start=1):
        by_position = edges if p == 1 else np.argsort(inverse[start:start + len(ids)])
        _pair_coboundary(cx, p, by_position, order, inverse, partner)
    return _pairing(cx, order, inverse, partner)


def _pair_coboundary(cx: SimplicialComplex, p: int, by_position: np.ndarray, order: np.ndarray,
                     inverse: np.ndarray, partner: np.ndarray) -> None:
    """Reduce the coboundary columns of the p-simplices not yet paired, in
    reverse filtration order, with apparent pairs as seeded pivots, and
    write each pair found into ``partner``: one dimension of
    ``persistence_pairs``, whose temporaries go when it returns.
    ``by_position`` lists the block's offsets in filtration order."""
    n = len(order)
    blocks = cx.blocks()
    start, ids = blocks[p]
    indptr, cofaces = cx.coboundary(p)
    rows = by_position[::-1]
    rows = rows[partner[start + rows] < 0]
    # earliest coface of every column, -1 for none: one minimum per
    # non-empty segment, each running up to the next one's start
    earliest = np.full(len(ids), -1, dtype=np.intp)
    filled = np.flatnonzero(indptr[1:] > indptr[:-1])
    earliest[filled] = np.minimum.reduceat(inverse[cofaces], indptr[filled])
    top = earliest[rows]
    has = np.flatnonzero(top >= 0)
    faces = cx.facets(p + 1)[order[top[has]] - blocks[p + 1][0]]
    latest = faces[np.arange(len(faces)), np.argmax(inverse[faces], axis=1)]
    apparent = np.zeros(len(rows), dtype=bool)
    apparent[has] = latest == start + rows[has]
    # apparent columns first, each seeding its pivot; the rest are reduced
    a = np.count_nonzero(apparent)
    keys = start + np.concatenate([rows[apparent], rows[~apparent]])
    pivot = _reduce_columns(partial(_cocolumn, cx, keys, inverse), [None] * len(keys),
                            dict(zip((n - 1 - top[apparent]).tolist(), range(a))), start=a)
    births = keys[np.fromiter(pivot.values(), np.intp, len(pivot))]
    deaths = order[n - 1 - np.fromiter(pivot, np.intp, len(pivot))]
    partner[births] = deaths
    partner[deaths] = births


def build_diagram(
    filtration: Filtration,
    pairing: PersistencePairing | None = None,
    drop_zero_tol: float = 0.0,
) -> PersistenceDiagram:
    """Persistence diagram of a filtration: ordinary points (f(birth),
    f(death)) plus essential births at (f(birth), inf).

    Points with persistence below ``drop_zero_tol`` are pruned (their pair
    lists stay aligned with the surviving rows).  The essential births are
    read off the filtration values on first read of the diagram's
    ``essential``.
    """
    if pairing is None:
        pairing = persistence_pairs(filtration)
    values, cx = filtration.values, pairing.complex
    points: dict[int, np.ndarray] = {}
    pairs: dict[int, list] = {}
    for dim, bs in pairing.births.items():
        ds = pairing.deaths[dim]
        bv, dv = values[bs], values[ds]
        if drop_zero_tol > 0.0:
            keep = np.flatnonzero(dv - bv > drop_zero_tol)
            bs, ds, bv, dv = bs[keep], ds[keep], bv[keep], dv[keep]
        points[dim] = np.column_stack([bv, dv])
        pairs[dim] = list(zip(_simplices_at(cx, bs, dim), _simplices_at(cx, ds, dim + 1)))
    dgm = PersistenceDiagram(points, None, pairs, pairing)
    dgm._values = values  # read at the essentials on first read
    return dgm


def betti_numbers(filtration: Filtration) -> dict[int, int]:
    """Ranks of the homology of the full complex (counts of essential classes)."""
    return dict(enumerate(persistence_pairs(filtration)._unpaired_counts()))


# ---------------------------------------------------------------------------
# diagram serialization: "dim,birth,death" per line with the literal "inf"
# for essential deaths, 17 significant digits.


def write_diagram(path, dgm: PersistenceDiagram) -> None:
    rows = []
    for dim in dgm.dims():
        for b, d in dgm.points.get(dim, np.empty((0, 2))):
            rows.append((dim, b, d))
        for b in dgm.essential.get(dim, ()):
            rows.append((dim, b, np.inf))
    rows.sort()
    write_table(path, ("dim", "birth", "death"), rows)


def read_diagram(path) -> PersistenceDiagram:
    pts: dict[int, list] = defaultdict(list)
    ess: dict[int, list] = defaultdict(list)
    for d_s, b_s, dd_s in read_table(path, "dim"):
        dim, b = int(d_s), float(b_s)
        if dd_s == "inf":
            ess[dim].append(b)
        else:
            pts[dim].append((b, float(dd_s)))
    return PersistenceDiagram(
        {k: np.asarray(v).reshape(len(v), 2) for k, v in pts.items()},
        {k: np.asarray(v) for k, v in ess.items()},
    )
