"""Free-text query translation: the intro's first pipeline stage.

The paper's motivating flow starts with free-text searches ("white
adidas juventus shirt") that the application translates into conjunctive
property queries before any classifier planning happens.  This module
implements that translation layer over a property vocabulary:

* tokenisation with basic normalisation (case, punctuation);
* synonym expansion ("sneaker" → "sneakers", "juve" → "juventus");
* multi-word property detection ("long sleeve" → "long-sleeve") via
  greedy longest-match;
* policies for unknown tokens (ignore / keep / reject).

The output is exactly the :class:`~repro.core.properties.Query` objects
the MC³ machinery consumes, so a raw search log can be piped straight
into a planner (see :meth:`QueryParser.parse_log`).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.properties import Query
from repro.exceptions import DatasetError

_TOKEN_PATTERN = re.compile(r"[a-z0-9][a-z0-9\-&+']*")

#: What to do with tokens that match no known property.
UNKNOWN_POLICIES = ("ignore", "keep", "reject")


class ParseReport:
    """Statistics from parsing a query log."""

    def __init__(self) -> None:
        self.total = 0
        self.parsed = 0
        self.empty = 0
        self.rejected = 0
        self.unknown_tokens: Counter = Counter()

    @property
    def coverage(self) -> float:
        """Share of raw queries that produced a usable property query."""
        if self.total == 0:
            return 1.0
        return self.parsed / self.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ParseReport {self.parsed}/{self.total} parsed, "
            f"{self.empty} empty, {self.rejected} rejected>"
        )


class QueryParser:
    """Translates free-text searches into conjunctive property queries.

    Parameters
    ----------
    vocabulary:
        The known properties.  Multi-word properties use ``-`` as the
        internal separator ("long-sleeve") and are matched against
        consecutive tokens.
    synonyms:
        Token(s) → property mapping applied before matching; keys may be
        multi-word strings ("football boots").
    unknown:
        ``"ignore"`` drops unmatched tokens (default — matches how real
        pipelines handle stop words and noise), ``"keep"`` turns them
        into properties verbatim, ``"reject"`` makes the whole query
        unparseable.
    """

    def __init__(
        self,
        vocabulary: Iterable[str],
        synonyms: Optional[Mapping[str, str]] = None,
        unknown: str = "ignore",
    ):
        if unknown not in UNKNOWN_POLICIES:
            raise DatasetError(
                f"unknown-token policy must be one of {UNKNOWN_POLICIES}, got {unknown!r}"
            )
        self.unknown = unknown
        self._properties = {str(p).lower() for p in vocabulary}
        if not self._properties:
            raise DatasetError("parser needs a non-empty vocabulary")
        self._synonyms: Dict[Tuple[str, ...], str] = {}
        for key, target in (synonyms or {}).items():
            target = str(target).lower()
            if target not in self._properties:
                raise DatasetError(
                    f"synonym target {target!r} is not in the vocabulary"
                )
            self._synonyms[tuple(self._tokenize(str(key)))] = target
        # Multi-word properties, as token tuples, longest first.
        self._compound: List[Tuple[Tuple[str, ...], str]] = []
        for prop in self._properties:
            parts = tuple(prop.split("-"))
            if len(parts) > 1:
                self._compound.append((parts, prop))
        self._compound.sort(key=lambda item: -len(item[0]))
        self._max_phrase = max(
            [len(parts) for parts, _p in self._compound]
            + [len(key) for key in self._synonyms]
            + [1]
        )

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        return _TOKEN_PATTERN.findall(text.lower())

    def parse(self, text: str) -> Optional[Query]:
        """One free-text query → a property query (or ``None``).

        ``None`` means no usable property was found, or (under the
        ``reject`` policy) an unknown token appeared.
        """
        tokens = self._tokenize(text)
        found: List[str] = []
        index = 0
        while index < len(tokens):
            matched = False
            # Longest phrase first: synonyms, compounds, single tokens.
            for span in range(min(self._max_phrase, len(tokens) - index), 0, -1):
                phrase = tuple(tokens[index : index + span])
                if phrase in self._synonyms:
                    found.append(self._synonyms[phrase])
                elif "-".join(phrase) in self._properties:
                    found.append("-".join(phrase))
                elif span == 1 and phrase[0] in self._properties:
                    found.append(phrase[0])
                else:
                    continue
                index += span
                matched = True
                break
            if matched:
                continue
            token = tokens[index]
            if self.unknown == "reject":
                return None
            if self.unknown == "keep":
                found.append(token)
            index += 1
        if not found:
            return None
        return frozenset(found)

    def parse_log(
        self, texts: Iterable[str]
    ) -> Tuple[List[Query], ParseReport]:
        """A raw search log → distinct property queries + statistics."""
        report = ParseReport()
        queries: List[Query] = []
        seen = set()
        for text in texts:
            report.total += 1
            tokens = self._tokenize(text)
            result = self.parse(text)
            if result is None:
                if self.unknown == "reject" and tokens:
                    report.rejected += 1
                else:
                    report.empty += 1
                for token in tokens:
                    if token not in self._properties:
                        report.unknown_tokens[token] += 1
                continue
            report.parsed += 1
            for token in tokens:
                if token not in self._properties and not any(
                    token in parts for parts, _p in self._compound
                ):
                    report.unknown_tokens[token] += 1
            if result not in seen:
                seen.add(result)
                queries.append(result)
        return queries, report
