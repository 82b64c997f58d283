"""Cost instrumentation shared by the inference engines.

Counters are owned by one engine instance for one query; the table algebra
only increments what it is handed.  ``max_table_size`` tracks the largest
single table an engine builds or counts as built: while eliminating,
intermediates included, and for the tree engine also in ``finish``'s merges.
``max_elim_size`` tracks the largest per-elimination size metric, whose
meaning is engine-specific (for the tabular engine it is the summed size of
the tables created during one elimination, for the contextual engines it is
the total size of the factor multisets produced by one elimination).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EliminationRecord:
    """Per-elimination accounting: ``created`` sizes and the engine's size
    metric for eliminating ``variable``.

    ``created`` lists, for the tabular engine, the sizes of the bucket
    kernel's smallest-first intermediate products (counted whether or not
    the kernel builds them) and of its result; for contextual VE, the confactors
    the step created; for the tree engine, the members of the result group.
    A contextual or tree step's intermediates reach ``max_table_size`` only.
    """

    variable: int
    created: tuple[int, ...]
    size: int


@dataclass
class CostCounters:
    multiplications: int = 0
    additions: int = 0
    splits: int = 0
    max_table_size: int = 0
    max_elim_size: int = 0
    eliminations: list[EliminationRecord] = field(default_factory=list)

    def note_tables(self, sizes) -> None:
        for s in sizes:
            if s > self.max_table_size:
                self.max_table_size = s

    def record_elimination(self, variable: int, created, size: int) -> None:
        created = tuple(created)
        self.note_tables(created)
        if size > self.max_elim_size:
            self.max_elim_size = size
        self.eliminations.append(EliminationRecord(variable, created, size))

    def elimination_for(self, variable: int) -> EliminationRecord:
        for rec in self.eliminations:
            if rec.variable == variable:
                return rec
        raise KeyError(f"no elimination recorded for variable {variable}")
