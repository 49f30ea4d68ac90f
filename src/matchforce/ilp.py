"""Integer linear program export for the minimum global forcing set problem.

One binary variable per edge, objective = their sum, and one covering
constraint per pair of maximal matchings: at least one edge on which the two
matchings differ must be chosen. No solver is embedded; the model is written
in a plain LP text format and solutions are read back as edge sets.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse, repeat
from operator import itemgetter, xor

from .graph import Graph, read_ascii_int
from .matchings import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    mask_renderer,
    mask_to_edges,
    maximal_matching_masks,
)


class SolutionFormatError(ValueError):
    """A solver solution file does not follow the expected format."""


class _RowPairs:
    """The row pairs ``(i, j)``, ``i < j``, whose rows differ exactly on one
    support, in lexicographic order.

    The count is known when the model is built; the pairs themselves are
    listed on demand, in one pass over the rows.
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
    pairs: Collection[tuple[int, int]]


@dataclass(frozen=True)
class IlpModel:
    """The covering model, kept as the maximal matchings it comes from.

    ``rows`` are the maximal matchings as edge bitmasks, in canonical order.
    ``supports`` lists each distinct support (the edges on which two rows
    differ) once, in first-seen order, in both forms. With deduplication,
    ``labels`` holds the first row pair of each support and each support is
    one constraint; without it, ``labels`` is None and every row pair is its
    own constraint. ``constraints`` (the model as :class:`IlpConstraint`
    objects, with the number of row pairs behind each support counted in one
    pass over the pairs) is built on first read; :func:`export_lp` does not
    read it. Two models are equal when their fields are, so a model built
    with deduplication never equals one built without.
    """

    num_edges: int
    rows: list[int]
    supports: list[int]
    labels: list[tuple[int, int]] | None = None

    @cached_property
    def constraints(self) -> tuple[IlpConstraint, ...]:
        rows = self.rows
        if self.labels is None:
            # Pairs with one support share one columns tuple.
            columns = {key: mask_to_edges(key) for key in self.supports}
            return tuple(
                IlpConstraint((i, j), columns[row ^ rows[j]], ((i, j),))
                for i, row in enumerate(rows)
                for j in range(i + 1, len(rows))
            )
        counts: Counter[int] = Counter()
        for i, row in enumerate(rows):
            counts.update(map(xor, repeat(row), rows[i + 1 :]))
        index = {row: i for i, row in enumerate(rows)}
        return tuple(
            IlpConstraint(label, mask_to_edges(key), _RowPairs(key, counts[key], rows, index))
            for label, key in zip(self.labels, self.supports)
        )

    def satisfied_by(self, edge_mask: int) -> bool:
        """Feasibility of a 0/1 assignment given as an edge bitmask."""
        return all(edge_mask & key for key in self.supports)


def _too_many_constraints(budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"more than {budget} constraints; raise the budget to export")


def build_model(g: Graph, budget: int = DEFAULT_BUDGET, dedup: bool = True) -> IlpModel:
    """Build the covering model from the incidence matrix.

    Two distinct rows always differ somewhere, so every constraint has at
    least one term; the strict "greater than zero" reads as ">= 1" over
    binary variables. Both forms hold the distinct column supports, found
    in one pass. With ``dedup`` on, row pairs inducing the same support share
    one constraint labeled by the lexicographically first pair; with it off,
    each row pair is its own constraint. ``budget`` also caps the
    constraints: more than that many row pairs without ``dedup``, or
    distinct supports with it, raise :class:`BudgetExceededError`.
    """
    rows = maximal_matching_masks(g, budget)
    if not dedup and len(rows) * (len(rows) - 1) // 2 > budget:
        raise _too_many_constraints(budget)
    # Only the labels name a row by its index.
    index = {row: i for i, row in enumerate(rows)} if dedup else {}
    # Each row is probed against every later row; most supports were seen
    # before, so a pair costs one set lookup. Since rows are distinct, the
    # supports row i adds are distinct, and each names the one later row j
    # it came from.
    seen: set[int] = set()
    supports: list[int] = []
    labels: list[tuple[int, int]] | None = [] if dedup else None
    for i, row in enumerate(rows):
        fresh = list(filterfalse(seen.__contains__, map(xor, repeat(row), rows[i + 1 :])))
        seen.update(fresh)
        supports += fresh
        if len(supports) > budget:
            raise _too_many_constraints(budget)
        if labels is not None:
            labels += zip(repeat(i), map(index.__getitem__, map(xor, repeat(row), fresh)))
    return IlpModel(g.m, rows, supports, labels)


def export_lp(model: IlpModel) -> str:
    """Render the model as LP text; variables are 1-based (x1..xm), constraint
    names carry the 1-based row pair they came from."""
    names = [f"x{k}" for k in range(1, model.num_edges + 1)]
    lines = ["Minimize", f" obj: {' + '.join(names)}" if names else " obj:", "Subject To"]
    render = mask_renderer(names, " + ")
    rows, supports = model.rows, model.supports
    nums = list(map(str, range(1, len(rows) + 1)))
    if model.labels is not None:
        labels = model.labels
        lines += map(
            "".join,
            zip(
                repeat(" c"),
                map(nums.__getitem__, map(itemgetter(0), labels)),
                repeat("_"),
                map(nums.__getitem__, map(itemgetter(1), labels)),
                repeat(": "),
                render(supports),
                repeat(" >= 1"),
            ),
        )
    else:
        # Each distinct support is rendered once, in one batch; row i's
        # constraints are joined into one string.
        bodies = dict(zip(supports, map(": ".__add__, render(supports))))
        for i, row in enumerate(rows[:-1]):
            pre = f" c{nums[i]}_"
            later = map(bodies.__getitem__, map(xor, repeat(row), rows[i + 1 :]))
            lines.append(pre + (" >= 1\n" + pre).join(map(str.__add__, nums[i + 1 :], later)) + " >= 1")
        # The lines hold every body by now; free the table before the join.
        del bodies
    lines.append("Binary")
    lines.extend(f" {name}" for name in names)
    # The empty last line ends the text with a newline without copying it.
    lines += ["End", ""]
    return "\n".join(lines)


def import_solution(text: str, g: Graph) -> tuple[tuple[int, ...], int]:
    """Read a solver solution: lines ``x<i> <value>``, each variable named
    as :func:`export_lp` writes it, unlisted variables 0.

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
        index = read_ascii_int(name[1:]) if name.startswith("x") else None
        if index is None or name != f"x{index}":
            raise SolutionFormatError(f"line {lineno}: unknown variable {name!r}")
        if not 1 <= index <= g.m:
            raise SolutionFormatError(
                f"line {lineno}: variable {name!r} out of range for {g.m} edges"
            )
        if index in values:
            raise SolutionFormatError(f"line {lineno}: duplicate assignment to {name!r}")
        try:
            # float() also reads non-ASCII digits and "_" separators.
            if not value_text.isascii() or "_" in value_text:
                raise ValueError(value_text)
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
