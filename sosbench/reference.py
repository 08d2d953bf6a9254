"""The paper's non-inferior designs, transcribed by hand for checking.

Kept apart from ``repro.paper.expected`` on purpose: the benchmark checks
the program against its own copy of the paper's rows, so a change to the
program's reference data cannot make a wrong front look right.

Each row is ``(cost, makespan, processor types, link count)``; fronts are
fastest first, as the sweeps return them.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

Row = Tuple[float, float, Tuple[str, ...], int]

#: Table II (Example 1, point-to-point), plus the cost-4 uniprocessor the
#: exact sweep finds below the paper's cheapest cap.
TABLE_II: Tuple[Row, ...] = (
    (14.0, 2.5, ("p1", "p2", "p3"), 3),
    (13.0, 3.0, ("p1", "p2", "p3"), 2),
    (7.0, 4.0, ("p1", "p3"), 1),
    (5.0, 7.0, ("p2",), 0),
    (4.0, 17.0, ("p1",), 0),
)

#: Table IV (Example 2, point-to-point).
TABLE_IV: Tuple[Row, ...] = (
    (15.0, 5.0, ("p1", "p2", "p3"), 4),
    (12.0, 6.0, ("p1", "p1", "p3"), 2),
    (8.0, 7.0, ("p1", "p3"), 2),
    (7.0, 8.0, ("p1", "p3"), 1),
    (5.0, 15.0, ("p2",), 0),
)

#: Table V (Example 2, bus).  A bus design buys no point-to-point links.
TABLE_V: Tuple[Row, ...] = (
    (10.0, 6.0, ("p1", "p1", "p3"), 0),
    (6.0, 7.0, ("p1", "p3"), 0),
    (5.0, 15.0, ("p2",), 0),
)

_TOL = 1e-6
_INSTANCE = re.compile(r"^(.*\d)[a-z]+$")


def design_row(document: Dict) -> Row:
    """``(cost, makespan, types, links)`` of a design's JSON document.

    Works on ``Design.to_dict()`` and on the service's result documents,
    which share one format.  Instance names like ``p1b`` map to ``p1``.
    """
    types = []
    for name in document["processors"]:
        match = _INSTANCE.match(name)
        types.append(match.group(1) if match else name)
    return (
        float(document["cost"]),
        float(document["makespan"]),
        tuple(sorted(types)),
        len(document["links"]),
    )


def row_matches(got: Row, want: Row) -> bool:
    return (
        abs(got[0] - want[0]) < _TOL
        and abs(got[1] - want[1]) < _TOL
        and got[2] == tuple(sorted(want[2]))
        and got[3] == want[3]
    )


def front_mismatch(documents: Sequence[Dict], rows: Sequence[Row]) -> Optional[str]:
    """``None`` when the designs equal ``rows`` in order, else a reason."""
    got: List[Row] = [design_row(d) for d in documents]
    if len(got) != len(rows):
        return f"front has {len(got)} designs, expected {len(rows)}: {got}"
    for index, (g, w) in enumerate(zip(got, rows)):
        if not row_matches(g, w):
            return f"design {index} is {g}, expected {w}"
    return None


def table2_for_cap(cap: float) -> Row:
    """The Table II oracle: the fastest row whose cost fits under ``cap``."""
    for row in TABLE_II:
        if row[0] <= cap + _TOL:
            return row
    raise ValueError(f"no Table II design costs at most {cap}")
