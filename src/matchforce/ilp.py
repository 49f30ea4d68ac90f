"""Integer linear program export for the minimum global forcing set problem.

One binary variable per edge, objective = their sum, and one covering
constraint per pair of maximal matchings: at least one edge on which the two
matchings differ must be chosen. No solver is embedded; the model is written
in a plain LP text format and solutions are read back as edge sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph
from .matchings import DEFAULT_BUDGET, mask_to_edges, maximal_matching_masks


class SolutionFormatError(ValueError):
    """A solver solution file does not follow the expected format."""


@dataclass(frozen=True)
class IlpConstraint:
    """One surviving covering constraint.

    ``label`` is the 0-based row pair that names the constraint, ``columns``
    the 0-based edge indices with nonzero coefficient, and ``pairs`` every row
    pair whose constraint has this same support (just the label when
    deduplication is off).
    """

    label: tuple[int, int]
    columns: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


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
    t = len(rows)
    # Constraint key -> the row pairs behind it, in first-seen order.
    groups: dict[object, list[tuple[int, int]]] = {}
    for i in range(t):
        row = rows[i]
        for j in range(i + 1, t):
            key = row ^ rows[j] if dedup else (i, j)
            if key in groups:
                groups[key].append((i, j))
            else:
                groups[key] = [(i, j)]
    constraints = tuple(
        IlpConstraint(
            label=pairs[0],
            columns=mask_to_edges(rows[pairs[0][0]] ^ rows[pairs[0][1]]),
            pairs=tuple(pairs),
        )
        for pairs in groups.values()
    )
    return IlpModel(num_edges=g.m, constraints=constraints)


def export_lp(model: IlpModel) -> str:
    """Render the model as LP text; variables are 1-based (x1..xm), constraint
    names carry the 1-based row pair they came from."""
    lines = ["Minimize"]
    terms = " + ".join(f"x{k}" for k in range(1, model.num_edges + 1))
    lines.append(f" obj: {terms}" if terms else " obj:")
    lines.append("Subject To")
    for constraint in model.constraints:
        i, j = constraint.label
        body = " + ".join(f"x{col + 1}" for col in constraint.columns)
        lines.append(f" c{i + 1}_{j + 1}: {body} >= 1")
    lines.append("Binary")
    lines.extend(f" x{k}" for k in range(1, model.num_edges + 1))
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
