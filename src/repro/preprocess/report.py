"""Bookkeeping for the preprocessing pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class PreprocessReport:
    """Counters describing what Algorithm 1 did to an instance.

    The experiment harness uses these to report the preprocessing effect
    (Figures 3c, 3e, 3f measure its impact on runtime and cost).
    """

    singleton_queries_selected: int = 0
    zero_weight_selected: int = 0
    queries_covered_step1: int = 0
    num_components: int = 0
    classifiers_removed_step3: int = 0
    forced_covers_step3: int = 0
    singletons_removed_step4: int = 0
    queries_covered_step34: int = 0
    elapsed_seconds: float = 0.0
    steps_run: tuple = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "singleton_queries_selected": self.singleton_queries_selected,
            "zero_weight_selected": self.zero_weight_selected,
            "queries_covered_step1": self.queries_covered_step1,
            "num_components": self.num_components,
            "classifiers_removed_step3": self.classifiers_removed_step3,
            "forced_covers_step3": self.forced_covers_step3,
            "singletons_removed_step4": self.singletons_removed_step4,
            "queries_covered_step34": self.queries_covered_step34,
            "elapsed_seconds": self.elapsed_seconds,
            "steps_run": list(self.steps_run),
        }
