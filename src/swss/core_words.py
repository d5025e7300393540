"""Semantic core words: extraction, stemming, and clipped matching.

A word is a semantic core word when its lowest UCCA edge label is
Process, State, Participant, or Center; such words are expected to
survive in every good translation. Matching between two bags is
one-to-one under stem identity, which decomposes per stem into clipped
counts (the same way n-gram clipping works in BLEU).
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable

from .porter import stem as porter_stem
from .ucca_graph import Category, UccaGraph

__all__ = [
    "CORE_CATEGORIES",
    "CoreWord",
    "CoreWordBag",
    "clipped_match",
    "extract_core_words",
    "porter_stem",
]

CORE_CATEGORIES = frozenset(
    {Category.PROCESS, Category.STATE, Category.PARTICIPANT, Category.CENTER}
)


@dataclass(frozen=True)
class CoreWord:
    surface: str
    stem: str
    position: int
    label: Category


@dataclass(frozen=True)
class CoreWordBag:
    """Multiset of stemmed core words from one sentence, in position order.

    May be empty; downstream scoring then falls back to a fixed score.
    """

    words: tuple[CoreWord, ...]

    @classmethod
    def from_stems(cls, stems, label: Category = Category.CENTER) -> "CoreWordBag":
        """Build a bag directly from stem strings (handy in tests and tools)."""
        words = tuple(
            CoreWord(surface=s, stem=s, position=i, label=label)
            for i, s in enumerate(stems, start=1)
        )
        return cls(words)

    @cached_property
    def stem_counts(self) -> Counter:
        return Counter(w.stem for w in self.words)

    @property
    def total(self) -> int:
        return len(self.words)


def extract_core_words(graph: UccaGraph) -> CoreWordBag:
    """Collect the graph's core words, stemmed and ordered by position."""
    words = []
    for t in graph.terminals:
        label = graph.lowest_label(t.id)
        if label in CORE_CATEGORIES:
            words.append(CoreWord(surface=t.text, stem=porter_stem(t.text), position=t.position, label=label))
    return CoreWordBag(tuple(words))


def clipped_match(
    side: CoreWordBag, other: CoreWordBag, weight: Callable[[Category], float]
) -> tuple[float, float]:
    """Weight of the ``side`` words in a maximum-weight one-to-one matching
    with ``other`` under stem identity, and the total weight of ``side``;
    ``weight`` maps a word's label to its weight.

    Per stem the matching takes min(count here, count there) words, the
    heaviest first. The sort is stable, so equal weights keep position
    order, and the result does not depend on the order of the words.
    """
    other_counts = other.stem_counts
    weighted = sorted(((weight(w.label), w.stem) for w in side.words), key=itemgetter(0), reverse=True)
    taken: dict[str, int] = {}
    matched = 0.0
    total = 0.0
    for w, stem in weighted:
        total += w
        used = taken.get(stem, 0)
        if used < other_counts.get(stem, 0):
            taken[stem] = used + 1
            matched += w
    return matched, total
