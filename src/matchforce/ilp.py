"""Integer linear program export for the minimum global forcing set problem.

One binary variable per edge, objective = their sum, and one covering
constraint per pair of maximal matchings: at least one edge on which the two
matchings differ must be chosen. No solver is embedded; the model is written
in a plain LP text format and solutions are read back as edge sets.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

from .graph import Graph
from .matchings import DEFAULT_BUDGET, mask_to_edges, maximal_matching_masks


class SolutionFormatError(ValueError):
    """A solver solution file does not follow the expected format."""


class _RowPairs:
    """The row pairs ``(i, j)``, ``i < j``, whose rows differ exactly on one
    support, in lexicographic order.

    The count is known when the model is built; the pairs themselves are
    listed on demand, in one pass over the rows. It compares equal to the
    tuple of its pairs.
    """

    __slots__ = ("_support", "_count", "_rows", "_index")

    def __init__(self, support: int, count: int, rows: list[int], index: dict[int, int]):
        self._support = support
        self._count = count
        self._rows = rows
        self._index = index

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        support, index = self._support, self._index
        for i, row in enumerate(self._rows):
            j = index.get(row ^ support)
            if j is not None and j > i:
                yield (i, j)

    def __getitem__(self, k):
        return tuple(self)[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _RowPairs)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class IlpConstraint:
    """One surviving covering constraint.

    ``label`` is the 0-based row pair that names the constraint, ``columns``
    the 0-based edge indices with nonzero coefficient, and ``pairs`` every row
    pair whose constraint has this same support, in lexicographic order (just
    the label when deduplication is off). With deduplication on, ``len`` of
    ``pairs`` is immediate and the pairs are listed when iterated.
    """

    label: tuple[int, int]
    columns: tuple[int, ...]
    pairs: Sequence[tuple[int, int]]


@dataclass(frozen=True)
class IlpModel:
    num_edges: int
    constraints: tuple[IlpConstraint, ...]

    def satisfied_by(self, edge_mask: int) -> bool:
        """Feasibility of a 0/1 assignment given as an edge bitmask."""
        for constraint in self.constraints:
            if not any(edge_mask >> j & 1 for j in constraint.columns):
                return False
        return True


def build_model(g: Graph, budget: int = DEFAULT_BUDGET, dedup: bool = True) -> IlpModel:
    """Build the covering model from the incidence matrix.

    Two distinct rows always differ somewhere, so every constraint has at
    least one term; the strict "greater than zero" reads as ">= 1" over
    binary variables. With ``dedup`` on, row pairs inducing the same column
    support share one constraint labeled by the lexicographically first pair.
    """
    rows = maximal_matching_masks(g, budget)
    index = {row: i for i, row in enumerate(rows)}
    # Support -> number of row pairs behind it, in first-seen order. Each row
    # is counted against every later row in one C-level update; the supports
    # it adds for the first time are the newest keys, and since rows are
    # distinct each names the one later row j it came from.
    counts: Counter[int] = Counter()
    labels: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        before = len(counts)
        counts.update(map(row.__xor__, rows[i + 1 :]))
        fresh = list(islice(reversed(counts), len(counts) - before))
        labels.extend((i, index[row ^ key]) for key in reversed(fresh))
    if dedup:
        constraints = tuple(
            IlpConstraint(label, mask_to_edges(key), _RowPairs(key, count, rows, index))
            for label, (key, count) in zip(labels, counts.items())
        )
    else:
        columns = {key: mask_to_edges(key) for key in counts}
        constraints = tuple(
            IlpConstraint((i, j), columns[row ^ rows[j]], ((i, j),))
            for i, row in enumerate(rows)
            for j in range(i + 1, len(rows))
        )
    return IlpModel(num_edges=g.m, constraints=constraints)


def export_lp(model: IlpModel) -> str:
    """Render the model as LP text; variables are 1-based (x1..xm), constraint
    names carry the 1-based row pair they came from."""
    names = [f"x{k}" for k in range(1, model.num_edges + 1)]
    lines = ["Minimize", f" obj: {' + '.join(names)}" if names else " obj:", "Subject To"]
    # Constraints without deduplication share one columns tuple per support.
    bodies: dict[tuple[int, ...], str] = {}
    for constraint in model.constraints:
        columns = constraint.columns
        body = bodies.get(columns)
        if body is None:
            body = bodies[columns] = " + ".join(map(names.__getitem__, columns))
        i, j = constraint.label
        lines.append(f" c{i + 1}_{j + 1}: {body} >= 1")
    # The lines hold every body by now; free the cache before the join.
    del bodies
    lines.append("Binary")
    lines.extend(f" {name}" for name in names)
    lines.append("End")
    return "\n".join(lines) + "\n"


def import_solution(text: str, g: Graph) -> tuple[tuple[int, ...], int]:
    """Read a solver solution: lines ``x<i> <value>``, unlisted variables 0.

    Values within 1e-6 of an integer are rounded and must land on 0 or 1.
    Returns the selected edge set (0-based) and the objective value. The
    result still needs to be verified as a global forcing set before use.
    """
    tolerance = 1e-6
    values: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolutionFormatError(f"line {lineno}: expected 'x<i> <value>'")
        name, value_text = parts
        if not (name.startswith("x") and name[1:].isdecimal()):
            raise SolutionFormatError(f"line {lineno}: unknown variable {name!r}")
        index = int(name[1:])
        if not 1 <= index <= g.m:
            raise SolutionFormatError(
                f"line {lineno}: variable {name!r} out of range for {g.m} edges"
            )
        if index in values:
            raise SolutionFormatError(f"line {lineno}: duplicate assignment to {name!r}")
        try:
            value = float(value_text)
        except ValueError:
            raise SolutionFormatError(
                f"line {lineno}: non-numeric value {value_text!r}"
            ) from None
        # round() fails on nan and inf, which are not binary either.
        rounded = round(value) if math.isfinite(value) else None
        if rounded not in (0, 1) or abs(value - rounded) > tolerance:
            raise SolutionFormatError(
                f"line {lineno}: value {value_text} is not binary within tolerance"
            )
        values[index] = rounded
    edges = tuple(sorted(i - 1 for i, v in values.items() if v == 1))
    return edges, len(edges)
