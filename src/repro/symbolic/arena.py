"""The columnar path-set core: ``PathTable`` and its incremental builder.

A **path table** is the canonical columnar representation of a symbolic
path set, used end to end by the bound engine:

* symbolic execution's collectors (the batch ``run()`` materialiser and the
  streamed-query cache tee) accumulate paths into a
  :class:`PathTableBuilder`, which interns every expression structurally as
  it arrives and grows the columns incrementally;
* the process dispatch transport serialises the same columns to a flat,
  position-independent byte image (:meth:`PathTable.to_bytes`) that a
  ``multiprocessing.shared_memory`` segment merely *backs* — the segment is
  one store for the bytes, not a separate format;
* analyzers with a columnar fast path (``analyze_table``) sweep the node
  and CSR arrays directly, never materialising ``SymbolicPath`` objects.

The columns are:

* a **node table** for the expression DAG (kind / payload columns plus a
  flattened child-index table): structurally shared sub-expressions are
  stored once and referenced by node id, so the table is never larger than
  an interned pickle and has no per-object pickling overhead;
* **per-path tables** (result node, flags, CSR-style offset spans for
  constraints, scores and sample-variable distributions);
* a tiny pickled **header** holding the buffer directory, the primitive-op
  name table and the (heavily shared, deduplicated) distribution records.

The byte image is position-independent: written once into a shared-memory
segment it can be attached by any worker and decoded *lazily* —
:meth:`PathTable.decode_range` materialises only the paths of one chunk,
memoising decoded nodes per attachment so consecutive chunks of the same
segment share their common sub-expressions for free.  ``PathTable.scratch``
additionally gives analyzers a per-table memo space (e.g. linear forms per
node id) that survives across chunks and queries of one attachment.

Encoding and decoding are exact: every float travels as an IEEE-754 double
in a ``float64`` column, so a decode round-trip reproduces paths that
compare equal to the originals and the bound engine's results stay
**bit-identical** across transports and analyzer fast paths.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..distributions import Distribution
from .intern import intern_path
from .paths import Relation, SymConstraint, SymbolicPath
from .value import SAtom, SConst, SPrim, SVar, SymExpr
from ..intervals import Interval

__all__ = [
    "ArenaFormatError",
    "KIND_ATOM",
    "KIND_CONST",
    "KIND_PRIM",
    "KIND_VAR",
    "PathArena",
    "PathTable",
    "PathTableBuilder",
    "encode_paths",
    "estimate_arena_bytes",
]

#: Bump when the buffer layout changes; decoders refuse other versions.
_ARENA_VERSION = 1

#: Expression node kinds (values of the ``node_kind`` column).  Public —
#: columnar consumers (:mod:`repro.analysis.vectorize`) walk the node table
#: directly.
KIND_VAR = 0
KIND_CONST = 1
KIND_ATOM = 2
KIND_PRIM = 3

# Internal aliases (the encoder/decoder below predates the public names).
_KIND_VAR = KIND_VAR
_KIND_CONST = KIND_CONST
_KIND_ATOM = KIND_ATOM
_KIND_PRIM = KIND_PRIM

#: ``struct`` format of the fixed-size prelude: magic, version, header length.
_PRELUDE = struct.Struct("<4sIQ")
_MAGIC = b"RPA1"

#: The buffer directory: ``(name, dtype)`` in serialisation order.  Offsets
#: are computed from the lengths recorded in the header, so the layout stays
#: self-describing.
_BUFFERS = (
    ("node_kind", np.uint8),
    ("node_ia", np.int32),  # SVar/SAtom index, SPrim op id
    ("node_ib", np.int32),  # SPrim child-span start
    ("node_ic", np.int32),  # SPrim child count
    ("const_lo", np.float64),
    ("const_hi", np.float64),
    ("children", np.int32),
    ("path_result", np.int32),
    ("path_flags", np.uint8),
    ("dist_offsets", np.int64),  # len == path_count + 1
    ("dist_ids", np.int32),
    ("constraint_offsets", np.int64),  # len == path_count + 1
    ("constraint_exprs", np.int32),
    ("constraint_rels", np.uint8),
    ("score_offsets", np.int64),  # len == path_count + 1
    ("score_exprs", np.int32),
)

#: Rough per-record byte costs used by :func:`estimate_arena_bytes` — the
#: fixed-width columns above plus slack for the header pickle.  Only the
#: *relative* magnitude matters (the stream-cache budget check), so the
#: estimate deliberately rounds up.
_NODE_BYTES = 32
_CHILD_BYTES = 4
_PATH_BYTES = 64


class ArenaFormatError(ValueError):
    """The byte image is not a valid (or compatible) path table."""


def estimate_arena_bytes(node_count: int, path_count: int, child_count: int = 0) -> int:
    """An upper-ish estimate of the encoded size of a path set.

    Used by the streamed-query cache tee to enforce its memory budget
    *before* materialising anything: the caller tracks unique interned nodes
    and paths incrementally (see :class:`PathTableBuilder`) and abandons the
    tee when this estimate exceeds ``stream_cache_budget``.
    """
    return (
        node_count * _NODE_BYTES
        + child_count * _CHILD_BYTES
        + path_count * _PATH_BYTES
        + 4096
    )


class _ArenaWriter:
    """Accumulates the expression-DAG node tables while walking path sets."""

    def __init__(self) -> None:
        self.node_kind: list[int] = []
        self.node_ia: list[int] = []
        self.node_ib: list[int] = []
        self.node_ic: list[int] = []
        self.const_lo: list[float] = []
        self.const_hi: list[float] = []
        self.children: list[int] = []
        self.ops: list[str] = []
        self._op_ids: Dict[str, int] = {}
        self.dists: list[Distribution] = []
        self._dist_ids: Dict[Distribution, int] = {}
        #: id(interned node) -> node id.  Interning makes structurally equal
        #: expressions the same object, so identity hashing suffices and the
        #: table inherits the full DAG sharing of the interned path set.
        self._node_ids: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def op_id(self, op: str) -> int:
        op_id = self._op_ids.get(op)
        if op_id is None:
            op_id = self._op_ids[op] = len(self.ops)
            self.ops.append(op)
        return op_id

    def dist_id(self, dist: Distribution) -> int:
        dist_id = self._dist_ids.get(dist)
        if dist_id is None:
            dist_id = self._dist_ids[dist] = len(self.dists)
            self.dists.append(dist)
        return dist_id

    def _emit(self, kind: int, ia: int, ib: int, ic: int, lo: float, hi: float) -> int:
        node_id = len(self.node_kind)
        self.node_kind.append(kind)
        self.node_ia.append(ia)
        self.node_ib.append(ib)
        self.node_ic.append(ic)
        self.const_lo.append(lo)
        self.const_hi.append(hi)
        return node_id

    def add_expr(self, expr: SymExpr) -> int:
        """The node id of ``expr``, emitting its subtree on first sight.

        Children are emitted before their parent (an explicit post-order
        stack, so recursion depth never limits expression depth); node ids
        therefore increase topologically, which is what lets the decoder
        rebuild nodes in one forward pass when it wants to.
        """
        top = self._node_ids.get(id(expr))
        if top is not None:
            return top
        stack: list[tuple[SymExpr, bool]] = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            node_id = self._node_ids.get(id(node))
            if node_id is not None:
                continue
            if isinstance(node, SPrim) and not expanded:
                stack.append((node, True))
                for arg in reversed(node.args):
                    stack.append((arg, False))
                continue
            if isinstance(node, SVar):
                node_id = self._emit(_KIND_VAR, node.index, 0, 0, 0.0, 0.0)
            elif isinstance(node, SConst):
                node_id = self._emit(
                    _KIND_CONST, 0, 0, 0, node.interval.lo, node.interval.hi
                )
            elif isinstance(node, SAtom):
                node_id = self._emit(_KIND_ATOM, node.index, 0, 0, 0.0, 0.0)
            elif isinstance(node, SPrim):
                child_ids = [self._node_ids[id(arg)] for arg in node.args]
                start = len(self.children)
                self.children.extend(child_ids)
                node_id = self._emit(
                    _KIND_PRIM, self.op_id(node.op), start, len(child_ids), 0.0, 0.0
                )
            else:
                raise TypeError(f"cannot encode symbolic expression {node!r}")
            self._node_ids[id(node)] = node_id
        return self._node_ids[id(expr)]


_RELATION_IDS = {relation: index for index, relation in enumerate(Relation.ALL)}


class PathTableBuilder:
    """Incrementally collect symbolic paths into columnar ``PathTable`` form.

    This is the single collector behind every path-set producer: the batch
    materialiser, the streamed-query cache tee and the dispatch transport all
    funnel through it.  :meth:`append` structurally interns the path against
    one shared memo (so the collected set carries full DAG sharing) **and**
    grows the columnar tables in the same pass — finalising via
    :meth:`build` (an in-memory :class:`PathTable`) or :meth:`to_bytes` (the
    wire/shared-memory image) is then a plain list→array conversion with no
    further tree walks.

    ``to_bytes`` is byte-identical to encoding the same paths in one batch
    call (:func:`encode_paths`): interning per path against a shared memo
    visits nodes in the same canonical order as interning the whole batch.
    """

    def __init__(self) -> None:
        self._writer = _ArenaWriter()
        #: Structural-interning memo (expression/constraint -> canonical
        #: instance), shared by every appended path.
        self.memo: Dict[object, object] = {}
        #: The interned paths, in append order.
        self.paths: list[SymbolicPath] = []
        self._path_result: list[int] = []
        self._path_flags: list[int] = []
        self._dist_offsets: list[int] = [0]
        self._dist_ids: list[int] = []
        self._constraint_offsets: list[int] = [0]
        self._constraint_exprs: list[int] = []
        self._constraint_rels: list[int] = []
        self._score_offsets: list[int] = [0]
        self._score_exprs: list[int] = []

    def __len__(self) -> int:
        return len(self.paths)

    def append(self, path: SymbolicPath, intern: bool = True) -> SymbolicPath:
        """Intern ``path``, add it to the table and return the interned path.

        ``intern=False`` trusts the caller to have interned the path against
        a compatible memo already (expression identity is then used as-is).
        """
        if intern:
            path = intern_path(path, self.memo)
        writer = self._writer
        self._path_result.append(writer.add_expr(path.result))
        self._path_flags.append(1 if path.truncated else 0)
        self._dist_ids.extend(writer.dist_id(dist) for dist in path.distributions)
        self._dist_offsets.append(len(self._dist_ids))
        for constraint in path.constraints:
            self._constraint_exprs.append(writer.add_expr(constraint.expr))
            self._constraint_rels.append(_RELATION_IDS[constraint.relation])
        self._constraint_offsets.append(len(self._constraint_exprs))
        self._score_exprs.extend(writer.add_expr(score) for score in path.scores)
        self._score_offsets.append(len(self._score_exprs))
        self.paths.append(path)
        return path

    def extend(self, paths: Iterable[SymbolicPath], intern: bool = True) -> None:
        for path in paths:
            self.append(path, intern=intern)

    def clear(self) -> None:
        """Drop everything collected (the tee's budget-overflow action)."""
        self.__init__()

    @property
    def nbytes_estimate(self) -> int:
        """Estimated encoded size of the collected paths so far (monotone)."""
        return estimate_arena_bytes(
            len(self._writer.node_kind), len(self.paths), len(self._writer.children)
        )

    # ------------------------------------------------------------------
    def _columns(self) -> Dict[str, np.ndarray]:
        arrays = {
            "node_kind": self._writer.node_kind,
            "node_ia": self._writer.node_ia,
            "node_ib": self._writer.node_ib,
            "node_ic": self._writer.node_ic,
            "const_lo": self._writer.const_lo,
            "const_hi": self._writer.const_hi,
            "children": self._writer.children,
            "path_result": self._path_result,
            "path_flags": self._path_flags,
            "dist_offsets": self._dist_offsets,
            "dist_ids": self._dist_ids,
            "constraint_offsets": self._constraint_offsets,
            "constraint_exprs": self._constraint_exprs,
            "constraint_rels": self._constraint_rels,
            "score_offsets": self._score_offsets,
            "score_exprs": self._score_exprs,
        }
        return {
            name: np.asarray(arrays[name], dtype=dtype) for name, dtype in _BUFFERS
        }

    def build(self) -> "PathTable":
        """Finalise into an in-memory :class:`PathTable` (no byte image)."""
        return PathTable(
            path_count=len(self.paths),
            _columns=self._columns(),
            _ops=tuple(self._writer.ops),
            _dists=tuple(self._writer.dists),
        )

    def to_bytes(self) -> bytes:
        """Serialise the collected columns to the flat byte image."""
        return _image_from_columns(
            self._columns(), len(self.paths), tuple(self._writer.ops), tuple(self._writer.dists)
        )


def _image_from_columns(
    columns: Dict[str, np.ndarray],
    path_count: int,
    ops: tuple[str, ...],
    dists: tuple[Distribution, ...],
) -> bytes:
    """Pack columnar arrays into the position-independent byte image."""
    buffers = [columns[name] for name, _ in _BUFFERS]
    header = pickle.dumps(
        {
            "version": _ARENA_VERSION,
            "path_count": path_count,
            "lengths": [len(buffer) for buffer in buffers],
            "ops": ops,
            # Unique distribution records: heavily shared by construction
            # (branch states copy the *list*), so this pickles a handful of
            # parameter tuples, not a per-path graph.
            "dists": dists,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    parts = [_PRELUDE.pack(_MAGIC, _ARENA_VERSION, len(header)), header]
    offset = _PRELUDE.size + len(header)
    for buffer in buffers:
        pad = (-offset) % 8
        parts.append(b"\0" * pad)
        data = buffer.tobytes()
        parts.append(data)
        offset += pad + len(data)
    return b"".join(parts)


def encode_paths(paths: Sequence[SymbolicPath], intern: bool = True) -> bytes:
    """Pack ``paths`` into a flat path-table byte image.

    ``intern`` (the default) structurally interns the paths first so that
    equal-but-distinct subtrees collapse into shared table nodes; pass
    ``False`` when the paths are already interned against one memo (e.g. by
    the streamed-query cache tee).
    """
    builder = PathTableBuilder()
    builder.extend(paths, intern=intern)
    return builder.to_bytes()


@dataclass
class PathTable:
    """A columnar symbolic path set (zero-copy over its backing buffers).

    Construct with :meth:`from_paths` (in-memory, via the builder) or
    :meth:`from_buffer` over any byte image — typically the ``buf`` of an
    attached ``multiprocessing.shared_memory`` segment.  In the buffer case
    the NumPy columns are views into that buffer; nothing is copied until a
    path (or node) is actually decoded.  ``keep_alive`` pins the object
    owning the buffer (the ``SharedMemory`` handle) for the table's
    lifetime; :meth:`release` drops every view so the segment can be closed
    safely.

    Two memo spaces make the table cheap to analyse repeatedly:

    * the decoded-node memo behind :meth:`decode_expr` is shared across
      decode calls, so chunks decoded from the same attachment share their
      common sub-expressions;
    * :attr:`scratch` is a free-form per-table cache for analyzers' derived
      data (linear forms per node id, score decompositions, …), surviving
      across chunks and queries of one attachment.
    """

    path_count: int
    _columns: Dict[str, np.ndarray]
    _ops: tuple[str, ...]
    _dists: tuple[Distribution, ...]
    _keep_alive: object = None

    def __post_init__(self) -> None:
        # Decoded-node memo: node id -> SymExpr, shared across decode calls.
        self._nodes: Dict[int, SymExpr] = {}
        #: Per-table memo space for analyzers (cleared with release()).
        self.scratch: Dict[object, object] = {}

    def __len__(self) -> int:
        return self.path_count

    # ------------------------------------------------------------------
    @classmethod
    def from_paths(cls, paths: Sequence[SymbolicPath], intern: bool = True) -> "PathTable":
        """Build an in-memory table from materialised paths."""
        builder = PathTableBuilder()
        builder.extend(paths, intern=intern)
        return builder.build()

    @classmethod
    def from_buffer(cls, buffer, keep_alive: object = None) -> "PathTable":
        """Attach to a path-table byte image without copying its buffers."""
        view = memoryview(buffer).cast("B")
        if len(view) < _PRELUDE.size:
            raise ArenaFormatError("buffer too small for a path table")
        magic, version, header_len = _PRELUDE.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ArenaFormatError("bad arena magic; not a path-table image")
        if version != _ARENA_VERSION:
            raise ArenaFormatError(
                f"unsupported arena version {version} (expected {_ARENA_VERSION})"
            )
        header_end = _PRELUDE.size + header_len
        header = pickle.loads(bytes(view[_PRELUDE.size : header_end]))
        lengths = header["lengths"]
        if len(lengths) != len(_BUFFERS):
            raise ArenaFormatError("arena buffer directory length mismatch")
        columns: Dict[str, np.ndarray] = {}
        offset = header_end
        for (name, dtype), length in zip(_BUFFERS, lengths):
            offset += (-offset) % 8
            nbytes = int(length) * np.dtype(dtype).itemsize
            if offset + nbytes > len(view):
                raise ArenaFormatError("truncated arena buffer")
            columns[name] = np.frombuffer(view, dtype=dtype, count=length, offset=offset)
            offset += nbytes
        return cls(
            path_count=int(header["path_count"]),
            _columns=columns,
            _ops=tuple(header["ops"]),
            _dists=tuple(header["dists"]),
            _keep_alive=keep_alive,
        )

    def to_bytes(self) -> bytes:
        """Serialise the table to its flat byte image (the wire format)."""
        return _image_from_columns(self._columns, self.path_count, self._ops, self._dists)

    def release(self) -> None:
        """Drop every buffer view (required before closing a shm segment)."""
        self._columns = {}
        self._nodes = {}
        self.scratch = {}
        self._keep_alive = None

    # ------------------------------------------------------------------
    # Columnar accessors (the analyzer fast-path surface)
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """One raw column (see the module-level buffer directory)."""
        return self._columns[name]

    @property
    def ops(self) -> tuple[str, ...]:
        """The primitive-op name table (``node_ia`` indexes it for SPrim nodes)."""
        return self._ops

    @property
    def distributions(self) -> tuple[Distribution, ...]:
        """The deduplicated distribution records (``dist_ids`` index it)."""
        return self._dists

    def result_id(self, index: int) -> int:
        """Node id of path ``index``'s result expression."""
        return int(self._columns["path_result"][index])

    def is_truncated(self, index: int) -> bool:
        return bool(self._columns["path_flags"][index])

    def variable_count(self, index: int) -> int:
        offsets = self._columns["dist_offsets"]
        return int(offsets[index + 1] - offsets[index])

    def path_dist_ids(self, index: int) -> np.ndarray:
        offsets = self._columns["dist_offsets"]
        return self._columns["dist_ids"][int(offsets[index]) : int(offsets[index + 1])]

    def path_distributions(self, index: int) -> tuple[Distribution, ...]:
        """The (shared) distribution records of path ``index``, in draw order."""
        return tuple(self._dists[int(dist_id)] for dist_id in self.path_dist_ids(index))

    def constraint_ids(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(expr node ids, relation ids)`` of path ``index``'s constraints."""
        offsets = self._columns["constraint_offsets"]
        start, stop = int(offsets[index]), int(offsets[index + 1])
        return (
            self._columns["constraint_exprs"][start:stop],
            self._columns["constraint_rels"][start:stop],
        )

    def score_ids(self, index: int) -> np.ndarray:
        """Expr node ids of path ``index``'s score values."""
        offsets = self._columns["score_offsets"]
        return self._columns["score_exprs"][int(offsets[index]) : int(offsets[index + 1])]

    # ------------------------------------------------------------------
    # Decoding (the materialised route)
    # ------------------------------------------------------------------
    def decode_expr(self, node_id: int) -> SymExpr:
        """Materialise one expression node (memoised per table)."""
        memo = self._nodes
        done = memo.get(node_id)
        if done is not None:
            return done
        kind = self._columns["node_kind"]
        ia = self._columns["node_ia"]
        ib = self._columns["node_ib"]
        ic = self._columns["node_ic"]
        lo = self._columns["const_lo"]
        hi = self._columns["const_hi"]
        children = self._columns["children"]
        # Explicit post-order stack: children materialise before parents, so
        # expression depth never hits the interpreter recursion limit.
        stack: list[tuple[int, bool]] = [(node_id, False)]
        while stack:
            current, expanded = stack.pop()
            if current in memo:
                continue
            node_kind = int(kind[current])
            if node_kind == _KIND_PRIM and not expanded:
                stack.append((current, True))
                start = int(ib[current])
                for child in children[start : start + int(ic[current])]:
                    stack.append((int(child), False))
                continue
            if node_kind == _KIND_VAR:
                memo[current] = SVar(int(ia[current]))
            elif node_kind == _KIND_CONST:
                memo[current] = SConst(Interval(float(lo[current]), float(hi[current])))
            elif node_kind == _KIND_ATOM:
                memo[current] = SAtom(int(ia[current]))
            elif node_kind == _KIND_PRIM:
                start = int(ib[current])
                args = tuple(
                    memo[int(child)]
                    for child in children[start : start + int(ic[current])]
                )
                memo[current] = SPrim(self._ops[int(ia[current])], args)
            else:
                raise ArenaFormatError(f"unknown arena node kind {node_kind}")
        return memo[node_id]

    # Backwards-compatible private alias (pre-PathTable name).
    _decode_expr = decode_expr

    def decode_path(self, index: int) -> SymbolicPath:
        """Materialise one path from the table columns."""
        if not 0 <= index < self.path_count:
            raise IndexError(f"path index {index} out of range [0, {self.path_count})")
        distributions = self.path_distributions(index)
        expr_ids, rel_ids = self.constraint_ids(index)
        constraints = tuple(
            SymConstraint(
                self.decode_expr(int(expr_id)), Relation.ALL[int(relation_id)]
            )
            for expr_id, relation_id in zip(expr_ids, rel_ids)
        )
        scores = tuple(
            self.decode_expr(int(expr_id)) for expr_id in self.score_ids(index)
        )
        return SymbolicPath(
            result=self.decode_expr(self.result_id(index)),
            variable_count=len(distributions),
            distributions=distributions,
            constraints=constraints,
            scores=scores,
            truncated=self.is_truncated(index),
        )

    def decode_range(self, start: int, stop: Optional[int] = None) -> tuple[SymbolicPath, ...]:
        """Materialise the paths ``[start, stop)`` (a dispatch chunk)."""
        if stop is None:
            stop = self.path_count
        return tuple(self.decode_path(index) for index in range(start, stop))

    def decode_all(self) -> tuple[SymbolicPath, ...]:
        return self.decode_range(0, self.path_count)


#: Historical name of :class:`PathTable` (the shared-memory transport view).
PathArena = PathTable
