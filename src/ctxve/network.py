"""Contextual belief networks: model, validation, construction and file I/O.

A network holds, for every variable, a family of confactors representing the
conditional probability of that variable given its predecessors.  Family
bodies must be mutually exclusive and exhaustive, mention only predecessors,
and every member's table must be normalized over the child.  A family is
built in code from one (context, table) pair per parent context: the
parents of a context are its table's variables other than the child.

The on-disk format is a JSON document::

    {"variables": [{"name": ..., "values": [...]}, ...],
     "families": [{"child": ...,
                   "confactors": [{"context": {var: value, ...},
                                   "vars": [...], "table": [...]}, ...]},
                  ...]}

Table arrays use the last-listed-variable-fastest layout.  Variable
declaration order fixes the total ordering.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np

from .confactor import Confactor, partition_faults, tile
from .errors import NetworkFormatError
from .tables import (
    Context,
    DomainCatalog,
    Table,
    VariableId,
    product as table_product,
    reorder,
    set_table,
)

NORMALIZATION_TOL = 1e-6


def _one_piece(fam: Sequence[Confactor]) -> bool:
    """True iff the family is one confactor with an empty body: its table is
    the family's whole dense table."""
    return len(fam) == 1 and not fam[0].body


class ContextualBeliefNetwork:
    """Immutable network: a domain catalog plus one confactor family per
    variable, in declaration order."""

    def __init__(self, catalog: DomainCatalog, families: Sequence[Sequence[Confactor]]):
        if len(families) != len(catalog):
            raise ValueError("one family required per variable")
        self.catalog = catalog
        # Family members are stamped as (pure) confactors for their child so
        # engines can track provenance regardless of how they were built.
        # One immutable set per family serves as both stamps of every member,
        # and equal bodies share one (immutable) context.
        stamps = [frozenset({x}) for x in range(len(families))]
        bodies: dict[Context, Context] = {}
        self.families: tuple[tuple[Confactor, ...], ...] = tuple(
            tuple(
                Confactor(bodies.setdefault(r.body, r.body), r.table, stamps[x], stamps[x])
                for r in fam
            )
            for x, fam in enumerate(families)
        )
        # The variables of each family's confactors (bodies and tables), in
        # ascending id: the family's dense scope, its variable and parents.
        self.scopes: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set().union(*(r.vars for r in fam)))) for fam in self.families
        )
        self._tabular_cache: dict[int, Table] = {}

    def all_confactors(self) -> list[Confactor]:
        return [r for fam in self.families for r in fam]

    def n_vars(self) -> int:
        return len(self.catalog)

    def total_confactor_size(self) -> int:
        return sum(r.size for r in self.all_confactors())

    def total_tabular_size(self) -> int:
        """Entries of all the dense family tables, counted without building
        any of them."""
        size = self.catalog.size
        return sum(math.prod(size(v) for v in scope) for scope in self.scopes)

    def tabular_factor(self, x: VariableId) -> Table:
        """Expand the family of ``x`` into one dense conditional table.

        Variables are in ascending id order.  A family of one confactor with
        an empty body is its own dense table, returned with its axes in that
        order as a view, never copied.  Any other family is tiled from its
        members: exactly one is applicable per assignment, so the blocks
        they write tile the table.  Either way the expansion is cached.
        """
        cached = self._tabular_cache.get(x)
        if cached is not None:
            return cached
        scope = self.scopes[x]
        fam = self.families[x]
        if _one_piece(fam):
            result = reorder(fam[0].table, scope)
        else:
            result = Table(scope, tile(fam, scope, self.catalog, 0.0))
        self._tabular_cache[x] = result
        return result

    def factor_under(self, x: VariableId, obs: Context) -> Table:
        """The family of ``x`` made dense under the evidence ``obs``: the
        variables, their order and the entries of
        ``set_table(self.tabular_factor(x), obs)``.

        A one-piece family, a family whose scope the evidence leaves
        untouched and a family already expanded whole are sliced from
        :meth:`tabular_factor`.  Any other family is tiled in the evidence's
        block only, over its scope minus the observed variables, and nothing
        is cached: its whole expansion is never built.
        """
        fam = self.families[x]
        scope = self.scopes[x]
        # Slicing a cached whole table beats re-tiling: ve on warm ctx-small nets is ~10% faster.
        if x in self._tabular_cache or _one_piece(fam) or obs.isdisjoint(scope):
            return set_table(self.tabular_factor(x), obs)
        free = tuple(v for v in scope if v not in obs)
        return Table(free, tile(fam, free, self.catalog, 0.0, obs))

    def validate(self) -> list[str]:
        """All family-invariant violations, as human-readable strings, each
        prefixed with its variable's name; empty iff the network is well
        formed."""
        return [
            f"{self.catalog.names[x]}: {fault}"
            for x, fam in enumerate(self.families)
            for fault in family_faults(self.catalog, x, fam)
        ]


def family_faults(catalog: DomainCatalog, x: VariableId, fam: Sequence[Confactor]) -> list[str]:
    """Why ``fam`` is not a valid family for ``x``; empty iff it is.

    A valid family is not empty.  Each member mentions only variables of
    the catalog; its body assigns in-domain values to predecessors of
    ``x``; its table holds ``x`` and otherwise only predecessors, each over
    its whole domain, and is finite, non-negative and normalized over
    ``x``.  The bodies are mutually exclusive and exhaustive
    (:func:`~ctxve.confactor.partition_faults`); that is not judged while
    the family names an unknown variable, whose domain is undefined.
    """
    if not fam:
        return ["empty family"]
    names = catalog.names
    known = range(len(catalog))
    unknown = {v for r in fam for v in r.vars if v not in known}
    faults: list[str] = []
    for i, r in enumerate(fam):
        arr = r.table.array
        if unknown:
            faults.extend(
                f"confactor {i} mentions unknown variable id {v}" for v in r.vars if v in unknown
            )
        if x not in r.table.vars:
            faults.append(f"confactor {i} has no {names[x]} in its table")
        for v, val in r.body.items():
            if v in unknown:
                continue
            if v >= x:
                faults.append(f"confactor {i} body mentions non-predecessor {names[v]}")
            if not 0 <= val < catalog.size(v):
                faults.append(f"confactor {i} assigns out-of-domain value to {names[v]}")
        for v, dim in zip(r.table.vars, arr.shape):
            if v in unknown:
                continue
            if v > x:
                faults.append(f"confactor {i} table mentions non-predecessor {names[v]}")
            if dim != catalog.size(v):
                faults.append(f"confactor {i} table dimension mismatch for {names[v]}")
        # min/max reject NaN too: a comparison with NaN is false.
        if not (arr.min() >= 0.0 and arr.max() < math.inf):
            faults.append(f"confactor {i} has negative or non-finite entries")
        elif x in r.table.vars:
            sums = arr.sum(axis=r.table.vars.index(x))
            if abs(sums - 1.0).max() > NORMALIZATION_TOL:
                faults.append(f"confactor {i} not normalized over {names[x]}")
    if not unknown:
        faults.extend(partition_faults(catalog, [r.body for r in fam]))
    return faults


def from_tabular_cpt(
    catalog: DomainCatalog, x: VariableId, parents: Sequence[VariableId], table: Table
) -> list[Confactor]:
    """Family for a plain conditional probability table of ``x`` given
    ``parents``: one confactor with an empty body, built by
    :func:`from_skeleton`.  The table must range over the parents and ``x``."""
    if set(table.vars) != {*parents, x}:
        raise ValueError("table must range over the parents plus the child")
    return from_skeleton(catalog, x, [(Context(), table)])


def from_skeleton(
    catalog: DomainCatalog, x: VariableId, pairs: Sequence[tuple[Context, Table]]
) -> list[Confactor]:
    """Family of ``x`` from (parent context, table) pairs, one confactor per
    pair: the parents ``x`` has in a context are its table's other
    variables.  A ``ValueError`` names the family's :func:`family_faults`."""
    fam = [Confactor(ctx, t) for ctx, t in pairs]
    faults = family_faults(catalog, x, fam)
    if faults:
        raise ValueError(f"family of {catalog.names[x]}: " + "; ".join(faults))
    return fam


def to_document(net: ContextualBeliefNetwork) -> dict:
    cat = net.catalog
    doc: dict = {
        "variables": [
            {"name": cat.names[v], "values": list(cat.domains[v])}
            for v in range(len(cat))
        ],
        "families": [],
    }
    for x in range(net.n_vars()):
        entry = {"child": cat.names[x], "confactors": []}
        for r in net.families[x]:
            entry["confactors"].append(
                {
                    "context": {
                        cat.names[v]: cat.domains[v][val] for v, val in r.body.items()
                    },
                    "vars": [cat.names[v] for v in r.table.vars],
                    "table": [float(v) for v in r.table.flat],
                }
            )
        doc["families"].append(entry)
    return doc


# The Python types of a parsed JSON number; ``bool`` is not one.
_NUMBERS = frozenset({int, float})


def _field(entry, key: str, kind: type, default=None):
    """``entry[key]``, which must be a ``kind``; ``default`` if the key is
    absent and a default is given."""
    if not isinstance(entry, dict):
        raise TypeError(f"expected an object, got {type(entry).__name__}")
    value = entry.get(key, default)
    if value is None:
        raise ValueError(f"missing field {key!r}")
    if not isinstance(value, kind):
        raise TypeError(f"field {key!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def from_document(doc: dict, force: bool = False) -> ContextualBeliefNetwork:
    """Network from a parsed document in the module's format, validated
    unless ``force``.  A malformed entry raises :class:`NetworkFormatError`
    naming where it is; an invalid network raises it with every fault on
    one line."""
    where = "document"
    try:
        var_entries = _field(doc, "variables", list)
        fam_entries = _field(doc, "families", list)
        decls = []
        for k, e in enumerate(var_entries):
            where = f"variable {k}"
            decls.append((_field(e, "name", str), _field(e, "values", list)))
        where = "variables"
        catalog = DomainCatalog(decls)
        families: list[list[Confactor]] = [[] for _ in range(len(catalog))]
        seen_children: set[int] = set()
        for k, entry in enumerate(fam_entries):
            where = f"family {k}"
            child = catalog.index(_field(entry, "child", str))
            if child in seen_children:
                raise ValueError(f"duplicate family for variable {catalog.names[child]!r}")
            seen_children.add(child)
            for i, c_entry in enumerate(_field(entry, "confactors", list, [])):
                where = f"family of {catalog.names[child]!r}, confactor {i}"
                body = catalog.context(_field(c_entry, "context", dict, {}))
                vars = tuple(catalog.index(n) for n in _field(c_entry, "vars", list))
                values = _field(c_entry, "table", list)
                if not _NUMBERS.issuperset(map(type, values)):
                    j = next(j for j, x in enumerate(values) if type(x) not in _NUMBERS)
                    kind = type(values[j]).__name__
                    raise TypeError(f"table entry {j} must be a number, got {kind}")
                table = catalog.table(vars, values)
                families[child].append(Confactor(body, table))
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None
    missing = [catalog.names[x] for x in range(len(catalog)) if x not in seen_children]
    if missing:
        raise NetworkFormatError(f"variables without families: {missing}")
    net = ContextualBeliefNetwork(catalog, families)
    if not force:
        violations = net.validate()
        if violations:
            raise NetworkFormatError("network failed validation: " + "; ".join(violations))
    return net


def save(net: ContextualBeliefNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_document(net), fh, indent=1)
        fh.write("\n")


def load(path, force: bool = False) -> ContextualBeliefNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(
                f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    return from_document(doc, force=force)


def joint_table(
    net: ContextualBeliefNetwork,
    obs: Optional[Context] = None,
    cap: int = 1 << 22,
) -> Table:
    """Unnormalized joint over the unobserved variables, with the evidence
    substituted in.  Entry = product of the per-family conditional values."""
    obs = obs or Context()
    remaining = [v for v in range(net.n_vars()) if v not in obs]
    space = math.prod(net.catalog.size(v) for v in remaining) if remaining else 1
    if space > cap:
        raise ValueError(f"state space {space} exceeds cap {cap}")
    acc = Table((), np.ones(()))
    for x in range(net.n_vars()):
        acc = table_product(acc, net.factor_under(x, obs))
    return reorder(acc, tuple(sorted(acc.vars)))
