"""Discrete variables, contexts and the dense-table algebra shared by all engines.

A table stores a non-negative binary64 value for every joint assignment of an
ordered variable list.  The flat layout is lexicographic with the *last*
listed variable varying fastest, which is exactly C order over the
per-variable axes, so tables are held as numpy arrays shaped by their
domain sizes.

A context is a partial assignment held as a mapping from variable id to
value index: lookups are dict lookups, two contexts are compatible when no
shared variable differs (probed from the smaller side), and the union of two
contexts is one constructor call, which raises on a clash.

The three arithmetic primitives (``product``, ``sum_out``, ``add_tables``)
accept an optional :class:`~ctxve.counters.CostCounters`; cost accounting is
owned by the calling engine, never by this module.  ``product`` and
``add_tables`` skip the broadcast alignment when the variable lists are equal
or an operand is a scalar (most calls of the contextual engines); the same
IEEE operation meets the same entries, so the values are bitwise identical.

``multiply_all_sum_out`` is the bucket kernel of all three engines: it
multiplies a bucket's tables smallest first and hands the last pair to
``contract``, which sums ``y`` out of their product with batched
``np.matmul`` and never builds that product.  Large contractions run in
blocks of at most :data:`BLOCK` entries written into one preallocated
result.  The counters are computed from shapes, so they equal those of the
unfused product and sum.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import IncompatibleContextsError

VariableId = int

# Most entries one block of contract() holds: its two operand blocks and its
# result block together.
BLOCK = 1 << 20


class DomainCatalog:
    """Named discrete variables with finite, ordered value lists.

    Declaration order is the total variable ordering used everywhere else:
    variable ``i`` may only depend on variables with a smaller index.
    """

    __slots__ = ("names", "domains", "_by_name")

    def __init__(self, variables: Sequence[tuple[str, Sequence[str]]]):
        names = []
        domains = []
        by_name: dict[str, int] = {}
        for name, values in variables:
            if name in by_name:
                raise ValueError(f"duplicate variable name: {name!r}")
            values = tuple(values)
            if not values:
                raise ValueError(f"variable {name!r} has an empty domain")
            if len(set(values)) != len(values):
                raise ValueError(f"variable {name!r} has duplicate value labels")
            by_name[name] = len(names)
            names.append(name)
            domains.append(values)
        self.names: tuple[str, ...] = tuple(names)
        self.domains: tuple[tuple[str, ...], ...] = tuple(domains)
        self._by_name = by_name

    def __len__(self) -> int:
        return len(self.names)

    def size(self, var: VariableId) -> int:
        return len(self.domains[var])

    def index(self, name: str) -> VariableId:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown variable: {name!r}") from None

    def value_index(self, var: VariableId, label: str) -> int:
        try:
            return self.domains[var].index(label)
        except ValueError:
            raise KeyError(
                f"unknown value {label!r} for variable {self.names[var]!r}"
            ) from None

    def shape(self, vars: Sequence[VariableId]) -> tuple[int, ...]:
        return tuple(self.size(v) for v in vars)

    def table(self, vars: Sequence[VariableId], values: Iterable[float]) -> "Table":
        """Build a table over ``vars`` from flat values in layout order."""
        vars = tuple(vars)
        arr = np.asarray(list(values), dtype=np.float64).reshape(self.shape(vars))
        return Table(vars, arr)

    def context(self, assignments: Mapping[str, str]) -> "Context":
        """Context from a name->label mapping."""
        items = []
        for name, label in assignments.items():
            var = self.index(name)
            items.append((var, self.value_index(var, label)))
        return Context(items)

    def parse_context(self, text: str) -> "Context":
        """Parse ``"a=true,b=false"`` into a context; empty text is the empty
        context, and a variable given twice is a ``ValueError``."""
        text = text.strip()
        if not text:
            return Context()
        pairs = {}
        for chunk in text.split(","):
            if "=" not in chunk:
                raise ValueError(f"expected name=value, got {chunk!r}")
            name, label = (part.strip() for part in chunk.split("=", 1))
            if name in pairs:
                raise ValueError(f"variable {name!r} is given twice")
            pairs[name] = label
        return self.context(pairs)


class Context:
    """Partial assignment of value indices to variables.

    Immutable and hashable; the empty context is valid and compatible with
    everything.  Held as one dict filled in ascending variable id, so lookups
    are dict lookups and ``items()``/``vars()`` come out sorted whatever the
    input order.  Assigning one variable two values raises
    :class:`IncompatibleContextsError`.
    """

    __slots__ = ("_map",)

    def __init__(self, items: Iterable[tuple[VariableId, int]] = ()):
        assigned: dict[int, int] = {}
        for var, val in sorted(items):
            if assigned.setdefault(var, val) != val:
                raise IncompatibleContextsError("incompatible contexts")
        self._map = assigned

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._map.items())

    def vars(self) -> tuple[VariableId, ...]:
        return tuple(self._map)

    def get(self, var: VariableId) -> Optional[int]:
        return self._map.get(var)

    def __contains__(self, var: VariableId) -> bool:
        return var in self._map

    def isdisjoint(self, vars: Iterable[VariableId]) -> bool:
        """True iff none of ``vars`` is assigned here."""
        return self._map.keys().isdisjoint(vars)

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Context) and self._map == other._map

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        inner = ",".join(f"{v}={val}" for v, val in self._map.items())
        return f"Context({inner})"

    def with_assignment(self, var: VariableId, value: int) -> "Context":
        return Context((*self._map.items(), (var, value)))

    def without(self, var: VariableId) -> "Context":
        return Context(p for p in self._map.items() if p[0] != var)


def compatible(c1: Context, c2: Context) -> bool:
    """False iff some variable is assigned different values in the two contexts."""
    small, large = c1._map, c2._map
    if len(small) > len(large):
        small, large = large, small
    for var, val in small.items():
        other = large.get(var)
        if other is not None and other != val:
            return False
    return True


def context_union(c1: Context, c2: Context) -> Context:
    """The context assigning every variable assigned in either input."""
    if not c1 or not c2:
        return c1 or c2
    return Context((*c1._map.items(), *c2._map.items()))


class Table:
    """Dense factor over an ordered variable list.

    ``array.shape`` holds the per-variable domain sizes, so a table is
    self-describing; an empty variable list is a scalar with one entry.
    """

    __slots__ = ("vars", "array")

    def __init__(self, vars: Sequence[VariableId], array: np.ndarray):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variables in table")
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != len(vars):
            raise ValueError(
                f"array rank {array.ndim} does not match {len(vars)} variables"
            )
        self.vars = vars
        self.array = array

    @classmethod
    def scalar(cls, value: float) -> "Table":
        return cls((), np.float64(value).reshape(()))

    @property
    def size(self) -> int:
        return int(self.array.size)

    @property
    def flat(self) -> np.ndarray:
        return self.array.reshape(-1)

    def domain_size(self, var: VariableId) -> int:
        return self.array.shape[self.vars.index(var)]

    def lookup(self, assignment: Mapping[VariableId, int]) -> float:
        """Entry at a full assignment of this table's variables."""
        idx = tuple(assignment[v] for v in self.vars)
        return float(self.array[idx])

    def __repr__(self) -> str:
        return f"Table(vars={self.vars}, shape={self.array.shape})"


def _broadcast_to(table: Table, out_vars: Sequence[VariableId]) -> np.ndarray:
    """View of ``table`` positioned for broadcasting over ``out_vars`` axes."""
    if table.vars == tuple(out_vars):
        return table.array
    pos = [out_vars.index(v) for v in table.vars]
    order = np.argsort(pos) if pos else []
    arr = np.transpose(table.array, order) if len(pos) > 1 else table.array
    shape = [1] * len(out_vars)
    for p, dim in zip(sorted(pos), arr.shape):
        shape[p] = dim
    return arr.reshape(shape)


def set_table(f: Table, c: Context) -> Table:
    """Fix the variables of ``c`` that occur in ``f``; project onto the rest.

    Variables of ``c`` absent from ``f`` are ignored; the empty context is a
    no-op returning ``f`` itself.
    """
    indexer = []
    out_vars = []
    touched = False
    for v in f.vars:
        val = c.get(v)
        if val is None:
            indexer.append(slice(None))
            out_vars.append(v)
        else:
            indexer.append(val)
            touched = True
    if not touched:
        return f
    return Table(tuple(out_vars), f.array[tuple(indexer)])


def _union_vars(f1: Table, f2: Table) -> tuple[VariableId, ...]:
    return f1.vars + tuple(v for v in f2.vars if v not in f1.vars)


def _aligned(f1: Table, f2: Table) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The union of the variable lists and both arrays positioned to broadcast
    over it; equal lists and scalar operands need no transposes."""
    if f1.vars == f2.vars or not f2.vars:
        return f1.vars, f1.array, f2.array
    if not f1.vars:
        return f2.vars, f1.array, f2.array
    out_vars = _union_vars(f1, f2)
    return out_vars, _broadcast_to(f1, out_vars), _broadcast_to(f2, out_vars)


def product(f1: Table, f2: Table, counters=None) -> Table:
    """Pointwise product over the union of the variable lists.

    Result variables are ``f1``'s followed by ``f2``'s novel ones.  The
    multiplication counter grows by the result's entry count.
    """
    out_vars, a, b = _aligned(f1, f2)
    result = Table(out_vars, a * b)
    if counters is not None:
        counters.multiplications += result.size
    return result


def add_tables(f1: Table, f2: Table, counters=None) -> Table:
    """Pointwise sum with the same variable-union semantics as ``product``."""
    out_vars, a, b = _aligned(f1, f2)
    result = Table(out_vars, a + b)
    if counters is not None:
        counters.additions += result.size
    return result


def sum_out(f: Table, y: VariableId, counters=None) -> Table:
    """Sum ``y`` out of ``f``; the result drops the ``y`` dimension."""
    if y not in f.vars:
        raise ValueError("variable not in table")
    axis = f.vars.index(y)
    dom = f.array.shape[axis]
    out_vars = tuple(v for v in f.vars if v != y)
    result = Table(out_vars, f.array.sum(axis=axis))
    if counters is not None:
        counters.additions += (dom - 1) * result.size
    return result


def reorder(table: Table, vars: Sequence[VariableId]) -> Table:
    """Same table with its axes permuted into the given variable order."""
    vars = tuple(vars)
    if table.vars == vars:
        return table
    if set(table.vars) != set(vars):
        raise ValueError("reorder must keep the same variable set")
    perm = [table.vars.index(v) for v in vars]
    return Table(vars, np.transpose(table.array, perm))


def multiply_all(
    tables: Sequence[Table], counters=None
) -> tuple[Table, list[int]]:
    """Product of ``tables``, smallest first: a stable sort by ascending size,
    then a left fold.  Returns the product (the scalar 1 for no tables) and
    the sizes of the pairwise products it created, in order."""
    ordered = sorted(tables, key=lambda t: t.size)
    acc = ordered[0] if ordered else Table.scalar(1.0)
    created: list[int] = []
    for t in ordered[1:]:
        acc = product(acc, t, counters)
        created.append(acc.size)
    return acc, created


def contract(a: Table, b: Table, y: VariableId, counters=None) -> Table:
    """Sum over ``y`` of the product of ``a`` and ``b``, never building the
    product.

    The variables split into three groups: batch (in both tables, not ``y``),
    only in ``a`` and only in ``b``.  ``a`` is viewed as (batch, only-a, y)
    and ``b`` as (batch, y, only-b), and one batched ``np.matmul`` sums over
    ``y``.  When that is too big to do at once, the leading non-``y``
    variables of the larger table are fixed one block at a time, so that a
    block's two operands and its result hold at most :data:`BLOCK` entries
    together (unless the variables left free already hold more).  Each block
    is assigned into a transposed view of one preallocated result over
    ``_union_vars(a, b)`` minus ``y``.  When only one operand has ``y``, it
    is summed there first.

    The counters are those of the unfused product and sum: one
    multiplication per entry of the product, ``dom - 1`` additions per
    entry of the result.
    """
    union = _union_vars(a, b)
    if y not in union:
        raise ValueError("variable not in table")
    dims = dict(zip(a.vars, a.array.shape))
    dims.update(zip(b.vars, b.array.shape))
    out_vars = tuple(v for v in union if v != y)
    out = np.empty([dims[v] for v in out_vars])
    if counters is not None:
        counters.multiplications += math.prod(dims.values())
        counters.additions += (dims[y] - 1) * out.size
    a_vars, a_arr = a.vars, a.array
    b_vars, b_arr = b.vars, b.array
    if y not in b_vars:
        a_arr = a_arr.sum(axis=a_vars.index(y), keepdims=True)
        b_vars, b_arr = b_vars + (y,), b_arr[..., None]
    elif y not in a_vars:
        b_arr = b_arr.sum(axis=b_vars.index(y), keepdims=True)
        a_vars, a_arr = a_vars + (y,), a_arr[..., None]
    larger, other = (a_vars, b_vars) if a.size >= b.size else (b_vars, a_vars)
    batch = [v for v in larger if v != y and v in other]
    only_a = [v for v in a_vars if v != y and v not in b_vars]
    only_b = [v for v in b_vars if v != y and v not in a_vars]
    a_t = a_arr.transpose([a_vars.index(v) for v in (*batch, *only_a, y)])
    b_t = b_arr.transpose([b_vars.index(v) for v in (*batch, y, *only_b)])
    out_t = out.transpose([out_vars.index(v) for v in (*batch, *only_a, *only_b)])
    # Fix the fewest leading variables that bring a block's two operands
    # and its result under BLOCK entries together.
    lead = batch + [v for v in larger if v != y and v not in other]
    k = 0
    a_blk, b_blk, out_blk = a_arr.size, b_arr.size, out.size
    while k < len(lead) and a_blk + b_blk + out_blk > BLOCK:
        v = lead[k]
        a_blk //= dims[v] if v in a_vars else 1
        b_blk //= dims[v] if v in b_vars else 1
        out_blk //= dims[v]
        k += 1
    fixed = lead[:k]
    n_batch = math.prod(dims[v] for v in batch[k:])
    n_a = math.prod(dims[v] for v in only_a if v not in fixed)
    n_b = math.prod(dims[v] for v in only_b if v not in fixed)
    n_y = a_t.shape[-1]
    out_axes = (*batch, *only_a, *only_b)
    block_shape = tuple(dims[v] for v in out_axes if v not in fixed)
    for idx in itertools.product(*(range(dims[v]) for v in fixed)):
        ia = ib = io = ()
        if idx:
            at = dict(zip(fixed, idx))
            ia = tuple(at.get(v, slice(None)) for v in (*batch, *only_a))
            ib = tuple(at.get(v, slice(None)) for v in (*batch, y, *only_b))
            io = tuple(at.get(v, slice(None)) for v in out_axes)
        out_t[io] = np.matmul(
            a_t[ia].reshape(n_batch, n_a, n_y), b_t[ib].reshape(n_batch, n_y, n_b)
        ).reshape(block_shape)
    return Table(out_vars, out)


def multiply_all_sum_out(
    tables: Sequence[Table], y: VariableId, counters=None
) -> tuple[Table, list[int]]:
    """Product of ``tables`` in :func:`multiply_all`'s order, with the final
    product contracted over ``y`` by :func:`contract`.

    Intermediate pairwise products are materialized; the last product is
    never built, only accounted for (its multiplications equal its size),
    and is not recorded as a created table.  Returns the summed result and
    the sizes of the tables actually materialized (intermediates + result).
    """
    if not tables:
        raise ValueError("nothing to multiply")
    *head, last = sorted(tables, key=lambda t: t.size)
    if not head:
        result = sum_out(last, y, counters)
        return result, [result.size]
    acc, created = multiply_all(head, counters)
    result = contract(acc, last, y, counters)
    created.append(result.size)
    return result, created
