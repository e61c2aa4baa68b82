"""Sets of PAG vertices and edges — the data of PerFlowGraph edges.

Paper §4.2: the intermediate results flowing between passes are *sets*
of PAG vertices and/or edges.  §4.3.1 defines the set-operation API:
element sorting, filtering, classification, and the usual intersection,
union, complement, and difference.  For a pass built purely from set
operations, outputs are subsets of inputs; graph operations may add new
elements.

Both set types preserve insertion order and deduplicate by element id,
so ``sort_by(m).top(n)`` (Listing 3) is deterministic.

Storage: a set whose elements all belong to one PAG is *columnar* — it
holds only the owning graph plus an ``int64`` id-array, and the algebra
(union/intersection/difference), ``sort_by``, ``select`` and the bulk
:meth:`values` API run as O(n) vectorized array operations without ever
materializing element handles.  Sets mixing PAGs or holding detached
elements fall back to a *legacy* handle-list representation with the
original per-element semantics.  Identity is keyed on the owning PAG's
monotonically assigned ``token`` (never reused, unlike ``id(pag)``,
which can collide after garbage collection reuses an address).
"""

from __future__ import annotations

import fnmatch
from typing import Any, Callable, Dict, Generic, Iterable, Iterator, List, Optional, TypeVar

import numpy as np

from repro.obs import metrics as _obs_metrics
from repro.pag.columns import FloatColumn, IntColumn, StrColumn, _np_view
from repro.pag.edge import COMMKIND_CODE, ELABEL_CODE, CommKind, Edge, EdgeLabel
from repro.pag.vertex import (
    CALLKIND_CODE,
    VLABEL_CODE,
    VLABELS,
    CallKind,
    Vertex,
    VertexLabel,
)

T = TypeVar("T", Vertex, Edge)

#: Direction selectors for :meth:`EdgeSet.select`, mirroring the paper's
#: ``v.es.select(IN_EDGE)`` (Listing 7 line 13).
IN_EDGE = "in"
OUT_EDGE = "out"

_EMPTY_IDS = np.empty(0, dtype=np.int64)

#: Storage-path hit counters (``repro.obs``): every set construction is
#: either *columnar* (id-array over one PAG — the fast path) or *legacy*
#: (handle list — mixed PAGs / detached elements).  The counters make the
#: fast/slow-path split visible in exported metrics; an increment is one
#: attribute add, cheap enough for this hot path.
_COLUMNAR_HITS = _obs_metrics.counter("pag.sets.columnar")
_LEGACY_HITS = _obs_metrics.counter("pag.sets.legacy")


def _stable_unique(a: np.ndarray) -> np.ndarray:
    """Deduplicate preserving first-occurrence order."""
    if len(a) <= 1:
        return a
    _, first = np.unique(a, return_index=True)
    if len(first) == len(a):
        return a
    first.sort()
    return a[first]


def _membership(query: np.ndarray, ids: np.ndarray, universe: int) -> np.ndarray:
    """Boolean mask over ``query``: which entries appear in ``ids``.

    Uses a bitset over the owning PAG when the operands are a sizable
    fraction of it (O(n) overall), a sort-based ``np.isin`` otherwise
    (small sets over huge graphs should not pay an O(|PAG|) allocation).
    """
    if len(ids) == 0 or len(query) == 0:
        return np.zeros(len(query), dtype=bool)
    if universe and len(ids) + len(query) >= universe // 8:
        bits = np.zeros(universe, dtype=bool)
        bits[ids] = True
        return bits[query]
    return np.isin(query, ids)


class _ElementSet(Generic[T]):
    """Ordered, deduplicated collection of PAG elements."""

    __slots__ = ("_pag", "_ids", "_els", "_members")

    #: Element class of this set family (Vertex or Edge); set in subclasses.
    _ELEMENT: type = object

    def __init__(self, elements: Iterable[T] = ()):  # noqa: D107
        pag = None
        ids: List[int] = []
        seen: set = set()
        els: Optional[List[T]] = None
        for el in elements:
            if els is None:
                p = el.pag
                if p is not None and (pag is None or p is pag):
                    pag = p
                    i = el.id
                    if i not in seen:
                        seen.add(i)
                        ids.append(i)
                    continue
                # mixed PAGs or a detached element: switch to legacy mode
                if pag is not None:
                    att = self._ELEMENT._attached
                    els = [att(pag, i) for i in ids]
                    token = pag.token
                    seen = {(token, i) for i in ids}
                else:
                    els = []
                    seen = set()
            key = (el._token(), el.id)
            if key not in seen:
                seen.add(key)
                els.append(el)
        if els is None:
            self._pag = pag
            self._ids = np.array(ids, dtype=np.int64) if ids else _EMPTY_IDS
            self._els = None
            _COLUMNAR_HITS.value += 1
        else:
            self._pag = None
            self._ids = None
            self._els = els
            _LEGACY_HITS.value += 1
        self._members = None

    @classmethod
    def _from_ids(cls, pag, ids: np.ndarray) -> "_ElementSet[T]":
        """Internal columnar constructor; ``ids`` must already be deduped."""
        s = object.__new__(cls)
        s._pag = pag
        s._ids = ids
        s._els = None
        s._members = None
        _COLUMNAR_HITS.value += 1
        return s

    @classmethod
    def from_ids(cls, pag, ids: Iterable[int]) -> "_ElementSet[T]":
        """Build a set from element ids of ``pag`` (bulk API).

        Ids are deduplicated preserving first-occurrence order, matching
        the constructor's semantics.
        """
        arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64)
        return cls._from_ids(pag, _stable_unique(arr))

    # -- internal helpers --------------------------------------------------
    def _handles(self) -> List[T]:
        if self._els is not None:
            return self._els
        pag = self._pag
        att = self._ELEMENT._attached
        return [att(pag, int(i)) for i in self._ids]

    def _keyset(self) -> set:
        if self._els is not None:
            return {(e._token(), e.id) for e in self._els}
        token = self._pag.token if self._pag is not None else 0
        return {(token, int(i)) for i in self._ids}

    def _id_members(self):
        if self._members is None:
            self._members = frozenset(self._ids.tolist())
        return self._members

    def _nrows(self) -> int:
        """Universe size (row count of this element family in the PAG)."""
        raise NotImplementedError

    def _columnar_with(self, *others: "_ElementSet[T]") -> bool:
        """True when all operands are columnar over one common PAG."""
        if self._els is not None:
            return False
        pag = self._pag
        for o in others:
            if o._els is not None:
                return False
            if o._pag is not None:
                if pag is None:
                    pag = o._pag
                elif o._pag is not pag:
                    return False
        return True

    def _common_pag(self, *others: "_ElementSet[T]"):
        if self._pag is not None:
            return self._pag
        for o in others:
            if o._pag is not None:
                return o._pag
        return None

    # -- container protocol ------------------------------------------------
    def __iter__(self) -> Iterator[T]:
        if self._els is not None:
            return iter(self._els)
        pag = self._pag
        att = self._ELEMENT._attached
        return (att(pag, int(i)) for i in self._ids)

    def __len__(self) -> int:
        if self._els is not None:
            return len(self._els)
        return len(self._ids)

    def __getitem__(self, idx):
        if self._els is not None:
            if isinstance(idx, slice):
                return type(self)(self._els[idx])
            return self._els[idx]
        if isinstance(idx, slice):
            return type(self)._from_ids(self._pag, self._ids[idx])
        return self._ELEMENT._attached(self._pag, int(self._ids[idx]))

    def __contains__(self, el: object) -> bool:
        if self._els is not None:
            return any(e is el or e == el for e in self._els)
        if not isinstance(el, self._ELEMENT):
            return False
        if el._pag is not self._pag or self._pag is None:
            return False
        return el.id in self._id_members()

    def __bool__(self) -> bool:
        return len(self) > 0

    def to_list(self) -> List[T]:
        if self._els is not None:
            return list(self._els)
        return self._handles()

    def ids(self) -> np.ndarray:
        """Element ids in set order as an ``int64`` array (bulk API)."""
        if self._els is not None:
            return np.fromiter((e.id for e in self._els), dtype=np.int64, count=len(self._els))
        return self._ids.copy()

    # -- set algebra ---------------------------------------------------------
    def union(self, *others: "_ElementSet[T]") -> "_ElementSet[T]":
        if self._columnar_with(*others):
            pag = self._common_pag(*others)
            arrays = [self._ids] + [o._ids for o in others]
            cat = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
            return type(self)._from_ids(pag, _stable_unique(cat))
        out: List[T] = list(self._handles())
        for other in others:
            out.extend(other._handles())
        return type(self)(out)

    def intersection(self, other: "_ElementSet[T]") -> "_ElementSet[T]":
        if self._columnar_with(other):
            pag = self._common_pag(other)
            if pag is None:
                return type(self)._from_ids(None, _EMPTY_IDS)
            mask = _membership(self._ids, other._ids, self._nrows())
            return type(self)._from_ids(pag, self._ids[mask])
        keys = other._keyset()
        return type(self)(e for e in self._handles() if (e._token(), e.id) in keys)

    def difference(self, other: "_ElementSet[T]") -> "_ElementSet[T]":
        if self._columnar_with(other):
            pag = self._pag
            if pag is None:
                return type(self)._from_ids(None, _EMPTY_IDS)
            if other._pag is not None and other._pag is pag:
                mask = _membership(self._ids, other._ids, self._nrows())
                return type(self)._from_ids(pag, self._ids[~mask])
            return type(self)._from_ids(pag, self._ids)
        keys = other._keyset()
        return type(self)(e for e in self._handles() if (e._token(), e.id) not in keys)

    def complement(self, universe: "_ElementSet[T]") -> "_ElementSet[T]":
        """Elements of ``universe`` not in this set."""
        return universe.difference(self)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ElementSet):
            return NotImplemented
        if (
            self._els is None
            and other._els is None
            and self._pag is other._pag
        ):
            if len(self._ids) != len(other._ids):
                return False
            return bool(np.array_equal(np.sort(self._ids), np.sort(other._ids)))
        return self._keyset() == other._keyset()

    def __hash__(self):  # sets are mutable-ish views; keep them unhashable
        raise TypeError(f"{type(self).__name__} is unhashable")

    # -- ordering / selection ------------------------------------------------
    def sort_by(self, metric: str, reverse: bool = True) -> "_ElementSet[T]":
        """Sort by a property value, descending by default (hotspot order).

        Elements missing the metric sort as 0.  The sort is stable, so
        ties keep their original relative order either way.
        """
        if self._els is None:
            if self._pag is None or len(self._ids) == 0:
                return type(self)._from_ids(self._pag, self._ids)
            vals = self._numeric_column(metric)
            order = np.argsort(-vals if reverse else vals, kind="stable")
            return type(self)._from_ids(self._pag, self._ids[order])

        def key(el: T) -> float:
            val = el[metric]
            return float(val) if isinstance(val, (int, float)) else 0.0

        return type(self)(sorted(self._els, key=key, reverse=reverse))

    def top(self, n: int) -> "_ElementSet[T]":
        """First ``n`` elements (combine with :meth:`sort_by`, Listing 3)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if self._els is None:
            return type(self)._from_ids(self._pag, self._ids[:n])
        return type(self)(self._els[:n])

    def filter(self, predicate: Callable[[T], bool]) -> "_ElementSet[T]":
        if self._els is None:
            pag = self._pag
            att = self._ELEMENT._attached
            kept = [int(i) for i in self._ids if predicate(att(pag, int(i)))]
            return type(self)._from_ids(pag, np.array(kept, dtype=np.int64))
        return type(self)(e for e in self._els if predicate(e))

    def classify(self, key: Callable[[T], Any]) -> Dict[Any, "_ElementSet[T]"]:
        """Partition the set by a key function (the classification op of §4.3.1)."""
        if self._els is None:
            pag = self._pag
            att = self._ELEMENT._attached
            id_groups: Dict[Any, List[int]] = {}
            for i in self._ids:
                i = int(i)
                id_groups.setdefault(key(att(pag, i)), []).append(i)
            return {
                k: type(self)._from_ids(pag, np.array(v, dtype=np.int64))
                for k, v in id_groups.items()
            }
        groups: Dict[Any, List[T]] = {}
        for el in self._els:
            groups.setdefault(key(el), []).append(el)
        return {k: type(self)(v) for k, v in groups.items()}

    # -- bulk property access -------------------------------------------------
    def values(self, key: str) -> List[Any]:
        """Property values in set order (bulk API; ``None`` where absent).

        Equivalent to ``[el[key] for el in self]`` but reads the owning
        PAG's columns directly for columnar sets.
        """
        if self._els is not None:
            return [el[key] for el in self._els]
        if self._pag is None or len(self._ids) == 0:
            return []
        return self._bulk_values(key)

    def map_property(self, metric: str) -> List[Any]:
        """Property values in set order (alias of :meth:`values`)."""
        return self.values(metric)

    def _bulk_values(self, key: str) -> List[Any]:
        raise NotImplementedError

    def _numeric_column(self, metric: str) -> np.ndarray:
        """Float values aligned with ``self._ids``; non-numeric reads as 0."""
        raise NotImplementedError

    def sum(self, metric: str) -> float:
        if self._els is None:
            if self._pag is None or len(self._ids) == 0:
                return 0.0
            return float(self._numeric_column(metric).sum())
        total = 0.0
        for el in self._els:
            val = el[metric]
            if isinstance(val, (int, float)):
                total += val
        return total

    def _prop_mask(self, store, ids: np.ndarray, key: str, want: Any) -> np.ndarray:
        """Vectorized ``el[key] == want`` over typed columns where possible."""
        col = store.column(key)
        if isinstance(col, (FloatColumn, IntColumn)) and isinstance(
            want, (int, float)
        ) and not isinstance(want, bool):
            data, valid = col.arrays(store.nrows)
            return valid[ids] & (data[ids] == want)
        if isinstance(col, StrColumn) and isinstance(want, str):
            sid = store.strings.find(want)
            return col.sid_array(store.nrows)[ids] == (-2 if sid is None else sid)
        if col is None:
            # missing property reads as None everywhere
            return np.full(len(ids), want is None)
        vals = col.values_at(ids)
        return np.fromiter((v == want for v in vals), dtype=bool, count=len(ids))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} elements)"


class VertexSet(_ElementSet[Vertex]):
    """A set of PAG vertices."""

    _ELEMENT = Vertex

    def _nrows(self) -> int:
        return self._pag.num_vertices if self._pag is not None else 0

    def _bulk_values(self, key: str) -> List[Any]:
        pag = self._pag
        ids = self._ids
        if key == "name":
            sids = _np_view(pag._v_name, np.int64)[ids]
            value = pag.strings.value
            return [value(int(s)) for s in sids]
        if key == "type":
            labels = _np_view(pag._v_label, np.int8)[ids]
            kinds = _np_view(pag._v_kind, np.int8)[ids]
            is_mpi = (labels == _CALL_CODE) & (kinds == _COMM_CODE)
            label_values = _VLABEL_VALUES
            return [
                "mpi" if m else label_values[c]
                for m, c in zip(is_mpi.tolist(), labels.tolist())
            ]
        return pag._vprops.values(key, ids)

    def _numeric_column(self, metric: str) -> np.ndarray:
        if metric in ("name", "type"):
            return np.zeros(len(self._ids))
        return self._pag._vprops.numeric(metric, self._ids, 0.0)

    def select(
        self,
        name: Optional[str] = None,
        label: Optional[VertexLabel] = None,
        call_kind: Optional[CallKind] = None,
        **props: Any,
    ) -> "VertexSet":
        """Filter by name glob (``"MPI_*"``), label, call kind, or property.

        This is the "filter" set operation of §4.3.1: e.g.
        ``V.select(name="MPI_*")`` keeps communication vertices and
        ``V.select(name="istream::read")`` keeps IO vertices.

        On a columnar set this runs vectorized: label/kind compare code
        arrays, the name glob is matched once per *distinct* name the
        set references, and typed property columns compare in bulk.
        """
        if self._els is None:
            pag = self._pag
            if pag is None or len(self._ids) == 0:
                return VertexSet._from_ids(pag, _EMPTY_IDS)
            ids = self._ids
            mask = np.ones(len(ids), dtype=bool)
            if label is not None:
                mask &= _np_view(pag._v_label, np.int8)[ids] == VLABEL_CODE[label]
            if call_kind is not None:
                mask &= _np_view(pag._v_kind, np.int8)[ids] == CALLKIND_CODE[call_kind]
            if name is not None:
                mask &= pag.strings.glob_mask(name, _np_view(pag._v_name, np.int64)[ids])
            for key, want in props.items():
                if not mask.any():
                    break
                if key == "name" or key == "type":
                    vals = VertexSet._from_ids(pag, ids)._bulk_values(key)
                    mask &= np.fromiter(
                        (v == want for v in vals), dtype=bool, count=len(ids)
                    )
                else:
                    mask &= self._prop_mask(pag._vprops, ids, key, want)
            return VertexSet._from_ids(pag, ids[mask])

        def ok(v: Vertex) -> bool:
            if name is not None and not fnmatch.fnmatchcase(v.name, name):
                return False
            if label is not None and v.label is not label:
                return False
            if call_kind is not None and v.call_kind is not call_kind:
                return False
            for key, want in props.items():
                if v[key] != want:
                    return False
            return True

        return VertexSet(v for v in self._els if ok(v))

    @property
    def pag(self):
        """The PAG that the (first) element belongs to.

        Listing 6 uses ``V.pag`` to hand the environment graph to a graph
        algorithm.  Mixed-PAG sets return the first element's graph.
        """
        if self._els is not None:
            return self._els[0].pag if self._els else None
        return self._pag if len(self._ids) else None


class EdgeSet(_ElementSet[Edge]):
    """A set of PAG edges."""

    _ELEMENT = Edge

    def _nrows(self) -> int:
        return self._pag.num_edges if self._pag is not None else 0

    def _bulk_values(self, key: str) -> List[Any]:
        return self._pag._eprops.values(key, self._ids)

    def _numeric_column(self, metric: str) -> np.ndarray:
        return self._pag._eprops.numeric(metric, self._ids, 0.0)

    def select(
        self,
        direction: Optional[str] = None,
        type: Optional[EdgeLabel] = None,  # noqa: A002 - paper API name
        comm_kind: Optional[CommKind] = None,
        of: Optional[Vertex] = None,
        **props: Any,
    ) -> "EdgeSet":
        """Filter edges by direction relative to ``of``, label, or property.

        ``select(IN_EDGE, of=v)`` keeps edges entering ``v``;
        ``select(type=EdgeLabel.INTER_PROCESS)`` keeps communication edges
        (the paper's ``in_es.select(type=pflow.COMM)``, Listing 7).
        """
        if self._els is None:
            pag = self._pag
            if pag is None or len(self._ids) == 0:
                return EdgeSet._from_ids(pag, _EMPTY_IDS)
            ids = self._ids
            mask = np.ones(len(ids), dtype=bool)
            if direction == IN_EDGE and of is not None:
                mask &= _np_view(pag._e_dst, np.int64)[ids] == of.id
            if direction == OUT_EDGE and of is not None:
                mask &= _np_view(pag._e_src, np.int64)[ids] == of.id
            if type is not None:
                mask &= _np_view(pag._e_label, np.int8)[ids] == ELABEL_CODE[type]
            if comm_kind is not None:
                mask &= _np_view(pag._e_kind, np.int8)[ids] == COMMKIND_CODE[comm_kind]
            for key, want in props.items():
                if not mask.any():
                    break
                mask &= self._prop_mask(pag._eprops, ids, key, want)
            return EdgeSet._from_ids(pag, ids[mask])

        def ok(e: Edge) -> bool:
            if direction == IN_EDGE and of is not None and e.dst_id != of.id:
                return False
            if direction == OUT_EDGE and of is not None and e.src_id != of.id:
                return False
            if type is not None and e.label is not type:
                return False
            if comm_kind is not None and e.comm_kind is not comm_kind:
                return False
            for key, want in props.items():
                if e[key] != want:
                    return False
            return True

        return EdgeSet(e for e in self._els if ok(e))

    def sources(self) -> VertexSet:
        if self._els is None:
            if self._pag is None or len(self._ids) == 0:
                return VertexSet._from_ids(None, _EMPTY_IDS)
            vids = _np_view(self._pag._e_src, np.int64)[self._ids]
            return VertexSet._from_ids(self._pag, _stable_unique(vids))
        return VertexSet(e.src for e in self._els)

    def destinations(self) -> VertexSet:
        if self._els is None:
            if self._pag is None or len(self._ids) == 0:
                return VertexSet._from_ids(None, _EMPTY_IDS)
            vids = _np_view(self._pag._e_dst, np.int64)[self._ids]
            return VertexSet._from_ids(self._pag, _stable_unique(vids))
        return VertexSet(e.dst for e in self._els)


#: Precomputed codes for the vectorized ``"type"`` pseudo-property.
_CALL_CODE = VLABEL_CODE[VertexLabel.CALL]
_COMM_CODE = CALLKIND_CODE[CallKind.COMM]
_VLABEL_VALUES = [label.value for label in VLABELS]
