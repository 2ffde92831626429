"""Table 1: the dataset summary (Section 6.1).

| Dataset       | # of queries | Max cost | Max length |
|---------------|--------------|----------|------------|
| BestBuy (BB)  | 1000         | 1        | 4          |
| Private (P)   | 10,000       | 63       | 5*         |
| Synthetic (S) | 100,000      | 50       | 10         |

\\* the printed table says 5 while the text describes lengths 1–6; we
follow the text (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.stats import InstanceStats
from repro.datasets import bestbuy_like, private_like, synthetic
from repro.experiments.report import render_table


class TableResult:
    """Rendered table plus the raw rows for programmatic checks."""

    def __init__(self, title: str, headers: Sequence[str], rows: List[Sequence[object]]):
        self.title = title
        self.headers = list(headers)
        self.rows = rows

    def render(self) -> str:
        return f"== {self.title} ==\n" + render_table(self.headers, self.rows)


def table_1(
    bb_n: int = 1000,
    p_n: int = 10_000,
    s_n: int = 100_000,
    seed: int = 0,
    cost_sample: int = 500,
) -> TableResult:
    """Regenerate Table 1 from the three dataset generators.

    ``cost_sample`` bounds how many queries the max-cost scan inspects
    (the lazily priced synthetic universe cannot be scanned exhaustively).
    """
    rows: List[Sequence[object]] = []
    for stats in (
        InstanceStats(bestbuy_like(bb_n, seed=seed), sample_costs=cost_sample),
        InstanceStats(private_like(p_n, seed=seed), sample_costs=cost_sample),
        InstanceStats(synthetic(s_n, seed=seed), sample_costs=cost_sample),
    ):
        row = stats.as_row()
        rows.append(
            [row["dataset"], row["queries"], row["max_cost"], row["max_length"]]
        )
    return TableResult(
        "Table 1: datasets used in the experiments",
        ["Dataset", "# of queries", "Max cost", "Max length"],
        rows,
    )
