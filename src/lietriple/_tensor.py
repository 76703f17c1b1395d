"""The table antisymmetric in its first two slots: the type under
``TripleSystem`` and ``LieAlgebra``.

A triple system's ``c[i][j][k]`` (rank 3, the product (e_i, e_j, e_k)) and
a Lie algebra's ``f[i][j]`` (rank 2, the bracket [e_i, e_j]) are nested
tables of coordinate vectors, and both classes subclass ``Table``.  It
owns the layout, the public constructor's checks, the builders and the
values each instance keeps.  ``_nz`` is the same nesting, with each
vector replaced by the pairs (l, x) of its nonzero coordinates, l
increasing.  ``_from_pairs`` fills in the lower half, negated, from the
pairs of the upper half, key[0] < key[1], so its output is antisymmetric
by construction and is not checked again; every table the library builds
comes from it.  It keeps ``_nz`` alone: the dense table (``c`` or ``f``),
which no invariant reads, is built from ``_nz`` when it is first read,
by ``==``, ``hash``, ``repr`` or an attribute access, and then kept.
That mechanism, ``Lazy``, alone writes an instance's attributes directly,
and ``embed.StandardEmbedding`` builds its ``h_basis`` through it too.
``_integer`` keeps the table scaled to integers, so each table is scaled
once, whichever reader asks first.
"""

from dataclasses import fields
from functools import cached_property
from math import lcm

from . import exactla
from .exactla import _EXACT, vec, vec_from_pairs, vec_nonzeros, zero_vec


def _map(table, rank: int, fn) -> tuple:
    """The table with fn applied to each cell, as nested tuples."""
    if rank == 1:
        return tuple(map(fn, table))
    return tuple([_map(t, rank - 1, fn) for t in table])


def _cells(items, depth: int) -> list:
    """(key + (i, ...), cell) for each cell ``depth`` levels into each (key, table) of items."""
    for _ in range(depth):
        items = [(key + (i,), cell) for key, t in items for i, cell in enumerate(t)]
    return items


def _nested(dim: int, rank: int, cells: dict, key=()) -> tuple:
    """The table of cells.get(key, ()) over every key of ``rank`` indices below dim."""
    if len(key) == rank - 1:
        return tuple([cells.get(key + (i,), ()) for i in range(dim)])
    return tuple([_nested(dim, rank, cells, key + (i,)) for i in range(dim)])


class Lazy:
    """A frozen dataclass whose instances ``_made`` may leave a field out,
    built by ``_build(name)`` when first read (as ``==``, ``hash`` or ``repr`` do) and kept."""

    def __getattr__(self, name: str):
        # called only for a name the instance does not hold
        if name not in self.__dataclass_fields__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = vars(self)[name] = self._build(name)
        return value

    @classmethod
    def _made(cls, **attrs):
        obj = object.__new__(cls)  # set as __init__ would, with no __post_init__
        vars(obj).update(attrs)
        return obj


class Table(Lazy):
    """A frozen dataclass with the fields (dim, table), the table
    antisymmetric in its first two slots.  A subclass sets ``RANK``, the
    word ``_KEY`` that names a bad key of ``from_entries``, the message
    ``_SHAPE`` for a table of the wrong shape, and ``_asymmetry``, the
    exception for the first bad key, 1-based."""

    def __post_init__(self):
        table = getattr(self, fields(self)[1].name)
        if not shape_ok(table, self.RANK, self.dim):
            raise ValueError(self._SHAPE)
        for x in scalars(table, self.RANK):
            if type(x) not in _EXACT:
                raise ValueError(f"table entry {x!r} is not an int or a Fraction")
        if bad := first_asymmetry(self._nz, self.RANK):
            raise self._asymmetry(*(s + 1 for s in bad))

    def _build(self, name: str):
        # the dense table of a table built by _from_pairs, from _nz
        zero = zero_vec(self.dim)
        return _map(self._nz, self.RANK, lambda p: vec_from_pairs(p, self.dim) if p else zero)

    @cached_property
    def _nz(self) -> tuple:
        return nonzeros(getattr(self, fields(self)[1].name), self.RANK)

    @cached_property
    def _integer(self) -> tuple:
        """The least common denominator d of the table, read off the upper
        half of ``_nz``, and ``_nz`` with each entry x replaced by the int d·x."""
        nz, rank = self._nz, self.RANK
        d = lcm(*(x.denominator for _, p in upper(nz, rank) for _, x in p))
        return d, _map(nz, rank, lambda p: tuple([(l, x.numerator * (d // x.denominator)) for l, x in p]) if p else ())

    @cached_property
    def _derived(self):
        # (M, M, M) or [G, G]: the span of the nonzero cells with key[0] < key[1],
        # unless _from_pairs was handed it; capped_span is looked up in exactla
        # when called
        return exactla.capped_span(integer_cells(self), self.dim, self.dim)

    @classmethod
    def from_entries(cls, dim: int, entries: dict):
        """Build from a sparse map {key: vector}, each key ``RANK`` 0-based
        indices with key[0] < key[1]; the antisymmetric completion, the
        negated vector at (key[1], key[0], ...), is filled in."""
        if dim < 0:
            return cls(dim, ())  # the shape check of the dense constructor words the error
        pairs, indices = {}, set(range(dim))
        for key, v in entries.items():
            if not (len(key) == cls.RANK and indices.issuperset(key) and key[0] < key[1]):
                raise ValueError(f"bad {cls._KEY} index ({','.join(map(str, key))})")
            v = vec(v)
            if len(v) != dim:
                raise ValueError("coordinate vector length mismatch")
            pairs[key] = vec_nonzeros(v)
        return cls._from_pairs(dim, pairs)

    @classmethod
    def _from_pairs(cls, dim: int, pairs: dict, _derived=None):
        """Build from {key: the nonzero pairs (l, x) of the cell at key}, each
        key with key[0] < key[1]: the negated pairs go to (key[1], key[0], ...)
        and every other cell is zero.  ``_derived``, when given, is the
        span of the cells, which the caller knows from its construction."""
        cells = dict(pairs)
        for (i, j, *rest), p in pairs.items():
            cells[(j, i, *rest)] = tuple([(l, -x) for l, x in p])
        # _nz kept for the table
        attrs = {fields(cls)[0].name: dim, "_nz": _nested(dim, cls.RANK, cells)}
        if _derived is not None:
            attrs["_derived"] = _derived
        return cls._made(**attrs)

    @classmethod
    def abelian(cls, dim: int):
        return cls.from_entries(dim, {})


def nonzeros(table, rank: int) -> tuple:
    """``_nz`` read off a dense table; a zero vector is matched as a whole."""
    zero = zero_vec(len(table))
    return _map(table, rank, lambda v: () if v == zero else vec_nonzeros(v))


def shape_ok(table, rank: int, dim: int) -> bool:
    """Every level of the table, and every vector in it, has length dim."""
    return len(table) == dim and (rank == 0 or all(shape_ok(t, rank - 1, dim) for t in table))


def scalars(table, rank: int):
    """The entries of every vector in the table, in order."""
    return table if rank == 0 else (x for t in table for x in scalars(t, rank - 1))


def first_asymmetry(nz, rank: int) -> tuple | None:
    """The first key with key[0] <= key[1] whose cell is not the negated cell
    at (key[1], key[0], ...), or None; on the diagonal, the first nonzero cell."""
    n = len(nz)
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    lower = _cells([((i, j), nz[j][i]) for i, j in keys], rank - 2)
    for (key, p), (_, q) in zip(_cells([((i, j), nz[i][j]) for i, j in keys], rank - 2), lower):
        if p != tuple([(l, -x) for l, x in q]):
            return key
    return None


def upper(nz, rank: int) -> list:
    """(key, cell) for the nonzero cells of a table of pairs with key[0] < key[1], in key order."""
    n = len(nz)
    halves = [((i, j), nz[i][j]) for i in range(n) for j in range(i + 1, n)]
    return [(key, p) for key, p in _cells(halves, rank - 2) if p]


def integer_cells(obj: Table):
    """The nonzero cells of the upper half of ``_integer``'s table, in key order, as dense int lists."""
    n = obj.dim
    for _, p in upper(obj._integer[1], obj.RANK):
        v = [0] * n
        for l, x in p:
            v[l] = x
        yield v


def slot_rows(obj: Table, slots) -> list:
    """For each slot in turn, the first (0) or the last (RANK - 1), the
    nonzero rows, in key order, of z -> the table scaled by ``_integer``
    with z in that slot: row (key without the slot, l) holds at s the int
    coordinate l of the cell whose key has s in the slot."""
    rank, nz = obj.RANK, obj._integer[1]
    n = len(nz)
    if rank == 2:
        nz = [(t,) for t in nz]  # read as rank 3 with a middle index of 0, which keeps the key order
    first = {} if 0 in slots else None
    last = {} if rank - 1 in slots else None
    for i, ti in enumerate(nz):
        for j, tij in enumerate(ti):
            for k, p in enumerate(tij):
                for l, x in p:
                    if first is not None:
                        first.setdefault((j, k, l), [0] * n)[i] = x
                    if last is not None:
                        last.setdefault((i, j, l), [0] * n)[k] = x
    return [tuple(r) for slot in slots for _, r in sorted((last if slot else first).items())]
