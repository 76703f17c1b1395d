"""The layout of a table antisymmetric in its first two slots.

A triple system's ``c[i][j][k]`` (rank 3, the product (e_i, e_j, e_k)) and
a Lie algebra's ``f[i][j]`` (rank 2, the bracket [e_i, e_j]) are nested
tables of coordinate vectors.  Each instance also keeps ``_nz``: the same
nesting, with each vector replaced by the pairs (l, x) of its nonzero
coordinates, l increasing.  ``build`` fills in the lower half, negated,
from the pairs of the upper half, key[0] < key[1], so its output is
antisymmetric by construction and is not checked again.  ``integer``
keeps the table scaled to integers on the instance, so each table is
scaled once, whichever reader asks first.
"""

from dataclasses import fields
from math import lcm

from .exactla import vec, vec_from_pairs, vec_nonzeros, zero_vec


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


def from_entries(cls, dim: int, rank: int, entries: dict, what: str):
    """``build`` from {key: vector}; a key needs ``rank`` indices below dim
    with key[0] < key[1], or it is a ``bad <what> index``."""
    if dim < 0:
        return cls(dim, ())  # the shape check of the dense constructor words the error
    pairs, indices = {}, set(range(dim))
    for key, v in entries.items():
        if not (len(key) == rank and indices.issuperset(key) and key[0] < key[1]):
            raise ValueError(f"bad {what} index ({','.join(map(str, key))})")
        v = vec(v)
        if len(v) != dim:
            raise ValueError("coordinate vector length mismatch")
        pairs[key] = vec_nonzeros(v)
    return build(cls, dim, rank, pairs)


def build(cls, dim: int, rank: int, pairs: dict):
    """The instance of the dataclass cls, with fields (dim, table), whose
    cells hold pairs[key] at each key of the upper half, the negated pairs
    at (key[1], key[0], ...) and zero elsewhere."""
    cells = dict(pairs)
    for (i, j, *rest), p in pairs.items():
        cells[(j, i, *rest)] = tuple([(l, -x) for l, x in p])
    nz = _nested(dim, rank, cells)
    zero = zero_vec(dim)
    table = _map(nz, rank, lambda p: vec_from_pairs(p, dim) if p else zero)
    obj = object.__new__(cls)
    # set as __init__ would, with _nz cached and no __post_init__
    dim_name, table_name = (f.name for f in fields(cls))
    vars(obj).update({dim_name: dim, table_name: table, "_nz": nz})
    return obj


def nonzeros(table, rank: int) -> tuple:
    """``_nz`` read off a dense table; a zero vector is matched as a whole."""
    zero = zero_vec(len(table))
    return _map(table, rank, lambda v: () if v == zero else vec_nonzeros(v))


def shape_ok(table, rank: int, dim: int) -> bool:
    """Every level of the table, and every vector in it, has length dim."""
    return len(table) == dim and (rank == 0 or all(shape_ok(t, rank - 1, dim) for t in table))


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


def integer(obj, rank: int) -> tuple:
    """The least common denominator d of the instance's table, read off the
    upper half of its ``_nz``, and ``_nz`` with each entry x replaced by the
    int d·x; computed once per instance and kept on it."""
    scaled = vars(obj).get("_integer")
    if scaled is None:
        nz = obj._nz
        d = lcm(*(x.denominator for _, p in upper(nz, rank) for _, x in p))
        table = _map(nz, rank, lambda p: tuple([(l, x.numerator * (d // x.denominator)) for l, x in p]) if p else ())
        scaled = vars(obj)["_integer"] = d, table
    return scaled


def upper(nz, rank: int) -> list:
    """(key, cell) for the nonzero cells of a table of pairs with key[0] < key[1], in key order."""
    n = len(nz)
    halves = [((i, j), nz[i][j]) for i in range(n) for j in range(i + 1, n)]
    return [(key, p) for key, p in _cells(halves, rank - 2) if p]


def integer_cells(obj, rank: int):
    """The nonzero cells of the upper half of ``integer``'s table, in key order, as dense int lists."""
    n = len(obj._nz)
    for _, p in upper(integer(obj, rank)[1], rank):
        v = [0] * n
        for l, x in p:
            v[l] = x
        yield v


def slot_rows(obj, rank: int, slots) -> list:
    """For each slot in turn, the first (0) or the last (rank - 1), the
    nonzero rows, in key order, of z -> the instance's table scaled by
    ``integer`` with z in that slot: row (key without the slot, l) holds at
    s the int coordinate l of the cell whose key has s in the slot."""
    nz = integer(obj, rank)[1]
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
