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

``multiply_all_sum_out`` is the bucket kernel of all three engines.  A
bucket whose last pairwise product has at most :data:`OPTIMIZE_ABOVE`
entries is summed over ``y`` in one plain ``np.einsum`` call over all its
tables (``contract``), so no product is built; a larger one multiplies its
tables smallest first and contracts only the last pair, through numpy's
batched matmul (``optimize=True``).  Either way the counters and the
recorded sizes are read off the smallest-first fold's scopes, so they equal
those of the unfused product and sum.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import IncompatibleContextsError

VariableId = int

# Last-product size above which the bucket kernel builds the bucket's
# intermediate products and lets einsum optimize the last pair, i.e. hand it
# to numpy's batched matmul; a smaller bucket is cheaper as one plain einsum
# call over all its tables.
OPTIMIZE_ABOVE = 1 << 13
# Most tables one np.einsum call takes on numpy 1.x (63 on numpy 2).
_EINSUM_OPERANDS = 31


def split_items(text: str) -> list[str]:
    """The items of a comma-separated list, stripped; empty items are dropped."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _unwritable(text: str, separators: str) -> bool:
    """True iff ``text`` has surrounding whitespace, which :func:`split_items`
    strips, or holds one of ``separators``, on which the CLI or the campaign
    CSV split."""
    return text != text.strip() or any(c in text for c in separators)


class DomainCatalog:
    """Named discrete variables with finite, ordered value lists.

    Declaration order is the total variable ordering used everywhere else:
    variable ``i`` may only depend on variables with a smaller index.  Every
    name and label can be written in the CLI's comma lists and ``name=value``
    items and in a campaign CSV row: a name is not empty and holds no ``,``,
    ``;`` or ``=``, a label holds no ``,`` or ``;``, and neither has
    surrounding whitespace.
    """

    __slots__ = ("names", "domains", "_by_name")

    def __init__(self, variables: Sequence[tuple[str, Sequence[str]]]):
        names = []
        domains = []
        by_name: dict[str, int] = {}
        for name, values in variables:
            if name in by_name:
                raise ValueError(f"duplicate variable name: {name!r}")
            if not name or _unwritable(name, ",;="):
                raise ValueError(
                    "variable name must be non-empty, with no ',', ';', '=' "
                    f"or surrounding whitespace: {name!r}"
                )
            values = tuple(values)
            if not values:
                raise ValueError(f"variable {name!r} has an empty domain")
            for label in values:
                if not isinstance(label, str):
                    raise TypeError(
                        f"variable {name!r} has a value label that is not a string: {label!r}"
                    )
                if _unwritable(label, ",;"):
                    raise ValueError(
                        f"variable {name!r} has a value label with ',', ';' "
                        f"or surrounding whitespace: {label!r}"
                    )
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
            raise ValueError(f"unknown variable: {name!r}") from None

    def value_index(self, var: VariableId, label: str) -> int:
        try:
            return self.domains[var].index(label)
        except ValueError:
            raise ValueError(
                f"unknown value {label!r} for variable {self.names[var]!r}"
            ) from None

    def shape(self, vars: Sequence[VariableId]) -> tuple[int, ...]:
        return tuple(self.size(v) for v in vars)

    def table(self, vars: Sequence[VariableId], values: Iterable[float]) -> "Table":
        """Build a table over ``vars`` from flat values in layout order; a
        ``ValueError`` unless there is exactly one value per entry."""
        vars = tuple(vars)
        values = list(values)
        # Filled in place, not reshaped from a flat array: a reshaped view
        # would keep that array alive beside it for the table's lifetime.
        arr = np.empty(self.shape(vars))
        if len(values) != arr.size:
            raise ValueError(f"expected {arr.size} table values, got {len(values)}")
        arr.reshape(-1)[:] = values
        return Table(vars, arr)

    def context(self, assignments: Mapping[str, str]) -> "Context":
        """Context from a name->label mapping."""
        items = []
        for name, label in assignments.items():
            var = self.index(name)
            items.append((var, self.value_index(var, label)))
        return Context(items)

    def parse_context(self, text: str) -> "Context":
        """Parse ``"a=true,b=false"`` into a context; empty items are dropped
        (:func:`split_items`), so empty text is the empty context, and a
        variable given twice is a ``ValueError``."""
        pairs = {}
        for chunk in split_items(text):
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
    arr = table.array
    if len(pos) > 1:
        arr = np.transpose(arr, sorted(range(len(pos)), key=pos.__getitem__))
    shape = [1] * len(out_vars)
    for p, dim in zip(sorted(pos), arr.shape):
        shape[p] = dim
    return arr.reshape(shape)


def set_table(f: Table, c: Context) -> Table:
    """Fix the variables of ``c`` that occur in ``f``; project onto the rest.

    Variables of ``c`` absent from ``f`` are ignored; the empty context is a
    no-op returning ``f`` itself.
    """
    if not c._map:
        return f
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
    """Same table with its axes permuted into the given variable order,
    which must list the same variables."""
    vars = tuple(vars)
    if table.vars == vars:
        return table
    perm = [table.vars.index(v) for v in vars]
    return Table(vars, np.transpose(table.array, perm))


def fold_key(t: Table) -> tuple[int, list[VariableId]]:
    """The fold order of :func:`multiply_all`: ascending size, ties to the
    lower sorted scope, so that the order (and the multiplication count)
    depends on the tables alone, never on the order they are listed in.
    The tree engine's groups, with the same ``size`` and ``vars``, sort by it."""
    return t.size, sorted(t.vars)


def multiply_all(
    tables: Sequence[Table], counters=None
) -> tuple[Table, list[int]]:
    """Product of ``tables``, smallest first: a sort by :func:`fold_key`,
    then a left fold.  Returns the product (the scalar 1 for no tables) and
    the sizes of the pairwise products it created, in order."""
    ordered = sorted(tables, key=fold_key)
    acc = ordered[0] if ordered else Table.scalar(1.0)
    created: list[int] = []
    for t in ordered[1:]:
        acc = product(acc, t, counters)
        created.append(acc.size)
    return acc, created


def contract(tables: Sequence[Table], y: VariableId, optimize: bool = False) -> Table:
    """Sum over ``y`` of the product of ``tables`` in one ``np.einsum`` call,
    never building that product.

    Each variable is labelled by its position in the tables' variable union,
    taken in list order as :func:`multiply_all` takes it; the result is over
    that union minus ``y``.  ``optimize`` lets einsum hand the contraction
    to numpy's batched matmul.
    """
    label: dict[VariableId, int] = {}
    operands: list = []
    for t in tables:
        for v in t.vars:
            label.setdefault(v, len(label))
        operands += [t.array, [label[v] for v in t.vars]]
    if y not in label:
        raise ValueError("variable not in table")
    out_vars = tuple(v for v in label if v != y)
    out = np.einsum(*operands, [label[v] for v in out_vars], optimize=optimize)
    return Table(out_vars, out)


def multiply_all_sum_out(
    tables: Sequence[Table], y: VariableId, counters=None
) -> tuple[Table, list[int]]:
    """Sum over ``y`` of the product of ``tables``, counted as
    :func:`multiply_all`'s pairwise fold followed by :func:`sum_out`.

    A bucket whose last pairwise product has at most :data:`OPTIMIZE_ABOVE`
    entries (and that fits in one einsum call) is contracted whole by
    :func:`contract`, so no pairwise product is built.  A larger one folds
    all but its last table with :func:`multiply_all` and contracts the last
    pair with einsum's optimization.  Either way the counters and the sizes
    come from the fold's running scopes: one multiplication per entry of
    each pairwise product, ``dom - 1`` additions per entry of the result.
    Returns the summed result and the sizes of the fold's intermediate
    products, built or not, followed by the result's.
    """
    if not tables:
        raise ValueError("nothing to multiply")
    ordered = sorted(tables, key=fold_key)
    if len(ordered) == 1:
        result = sum_out(ordered[0], y, counters)
        return result, [result.size]
    dims = dict(zip(ordered[0].vars, ordered[0].array.shape))
    created: list[int] = []
    for t in ordered[1:]:
        for v, d in zip(t.vars, t.array.shape):
            dims.setdefault(v, d)
        created.append(math.prod(dims.values()))
    if created[-1] <= OPTIMIZE_ABOVE and len(ordered) <= _EINSUM_OPERANDS:
        result = contract(ordered, y)
    else:
        acc, _ = multiply_all(ordered[:-1])
        result = contract([acc, ordered[-1]], y, optimize=created[-1] > OPTIMIZE_ABOVE)
    if counters is not None:
        counters.multiplications += sum(created)
        counters.additions += (dims[y] - 1) * result.size
    created[-1] = result.size
    return result, created
