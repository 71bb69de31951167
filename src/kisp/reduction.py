"""Reduction of verbose kinship terms to English kin words.

A reduction dictionary maps kin-term patterns (inverse- and dual-free)
to English words.  ``shorten`` implements the greedy strategy: find the
longest contiguous window of the term's concatenation spine that
matches a pattern, substitute the word, and recurse into the left and
right remainders.  ``optimal_shorten`` is the exhaustive search over
all substitution orders, used as an oracle — greedy is fast but can be
beaten by a crafted dictionary.

Matching is insensitive to fork operand order: patterns and windows are
compared after normalizing fork arguments into a sorted canonical form.

Dictionary file format, one entry per line (``#`` starts a comment):

    son . (father | mother) => brother
"""

from __future__ import annotations

import functools
import pkgutil
from typing import Callable, Iterable, Iterator, Union

from .terms import (
    TOO_LONG,
    Dual,
    Inverse,
    KinTerm,
    canonical,
    concat_count,
    contains_dual,
    contains_inverse,
    from_spine,
    parse_kin_term,
    push_dual,
    record,
    render,
    spine,
    walk,
)

Segment = Union[str, KinTerm]  # an English word, or an irreducible kin sub-term


class ReductionError(Exception):
    """Base class for reduction failures."""


class DictionaryError(ReductionError):
    """Malformed dictionary text or inconsistent entries."""


class UnknownWordError(ReductionError):
    """``expand`` met an English word absent from the dictionary."""


class SearchBudgetError(ReductionError):
    """The exhaustive oracle exceeded its node budget."""


def _stack_bounded(fn: Callable) -> Callable:
    """``fn`` with running out of Python stack turned into a ReductionError.
    The term operations recurse once per node, so a term of about a thousand
    factors, or nested as deep, exhausts the stack."""

    @functools.wraps(fn)
    def bounded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise ReductionError(TOO_LONG) from None

    return bounded


@record
class ReducedTerm:
    """Result of reduction: spine segments, words mixed with kin terms."""

    segments: tuple[Segment, ...]

    def __str__(self) -> str:
        return " of ".join(
            seg if isinstance(seg, str) else render(seg) for seg in self.segments
        )

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(seg for seg in self.segments if isinstance(seg, str))


def remaining_concats(reduced: ReducedTerm) -> int:
    """Concatenations left after reduction: the joins between segments
    plus any concatenations inside unmatched sub-terms."""
    internal = sum(
        concat_count(seg) for seg in reduced.segments if not isinstance(seg, str)
    )
    return len(reduced.segments) - 1 + internal


def _window_key(segments: Iterable[KinTerm]) -> tuple[str, ...]:
    return tuple(render(canonical(seg)) for seg in segments)


class ReductionDictionary:
    """Ordered pattern → word map with canonical-key lookup."""

    def __init__(self, entries: Iterable[tuple[KinTerm, str]]):
        self._entries: list[tuple[KinTerm, str]] = []
        self._by_key: dict[tuple[str, ...], str] = {}
        self._by_word: dict[str, KinTerm] = {}
        self.max_window = 0
        for pattern, word in entries:
            if contains_dual(pattern) or contains_inverse(pattern):
                raise DictionaryError(
                    f"pattern for {word!r} must be free of dual and inverse"
                )
            key = _window_key(spine(pattern))
            if key in self._by_key:
                raise DictionaryError(
                    f"duplicate pattern {render(pattern)!r} (for {word!r})"
                )
            if word in self._by_word:
                raise DictionaryError(f"duplicate word {word!r}")
            self._entries.append((pattern, word))
            self._by_key[key] = word
            self._by_word[word] = pattern
            self.max_window = max(self.max_window, len(key))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[KinTerm, str]]:
        return iter(self._entries)

    def __contains__(self, word: str) -> bool:
        return word in self._by_word

    def word_for_key(self, key: tuple[str, ...]) -> Union[str, None]:
        return self._by_key.get(key)

    def pattern_for(self, word: str) -> KinTerm:
        try:
            return self._by_word[word]
        except KeyError:
            raise UnknownWordError(f"unknown kinship word {word!r}") from None

    @classmethod
    def parse(cls, text: str) -> "ReductionDictionary":
        entries: list[tuple[KinTerm, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=>" not in line:
                raise DictionaryError(f"line {lineno}: expected '<pattern> => <word>'")
            pattern_src, _, word = line.partition("=>")
            word = word.strip()
            if not word or not all(p.isalpha() for p in word.split("-")) or not word.islower():
                raise DictionaryError(
                    f"line {lineno}: word must be a lowercase dash-case name, got {word!r}"
                )
            try:
                pattern = parse_kin_term(pattern_src.strip())
            except ValueError as exc:
                raise DictionaryError(f"line {lineno}: {exc}") from None
            entries.append((pattern, word))
        try:
            return cls(entries)
        except DictionaryError as exc:
            raise DictionaryError(str(exc)) from None

    @classmethod
    def load(cls, path: str) -> "ReductionDictionary":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DictionaryError(f"cannot read dictionary file: {exc}") from exc
        return cls.parse(text)

    @classmethod
    def standard(cls) -> "ReductionDictionary":
        """The built-in English dictionary shipped with the package."""
        text = pkgutil.get_data("kisp", "data/standard.dict").decode("utf-8")
        return cls.parse(text)


def _normalize(term: KinTerm) -> KinTerm:
    has_dual = False
    for node in walk(term):
        if isinstance(node, Inverse):
            raise ReductionError("cannot reduce a term containing inverse")
        if isinstance(node, Dual):
            has_dual = True
    return push_dual(term) if has_dual else term


@_stack_bounded
def shorten(dictionary: ReductionDictionary, term: KinTerm) -> ReducedTerm:
    """Greedy reduction: longest matching spine window, leftmost on ties,
    then recurse into what remains on either side."""
    term = _normalize(term)
    segments = spine(term)
    keys = _window_key(segments)
    return ReducedTerm(tuple(_shorten(dictionary, segments, keys)))


def _shorten(
    dictionary: ReductionDictionary,
    segments: tuple[KinTerm, ...],
    keys: tuple[str, ...],
) -> list[Segment]:
    if not segments:
        return []
    n = len(segments)
    best = None  # (start, stop, word)
    best_len = 0
    for i in range(n):
        # longest window starting at i; strict > keeps the leftmost maximum
        for j in range(min(n, i + dictionary.max_window), i, -1):
            if j - i <= best_len:
                break
            word = dictionary.word_for_key(keys[i:j])
            if word is not None:
                best = (i, j, word)
                best_len = j - i
                break
    if best is None:
        return list(segments)
    i, j, word = best
    return (
        _shorten(dictionary, segments[:i], keys[:i])
        + [word]
        + _shorten(dictionary, segments[j:], keys[j:])
    )


@_stack_bounded
def expand(dictionary: ReductionDictionary, reduced: ReducedTerm) -> KinTerm:
    """Substitute every English word by its pattern and re-concatenate."""
    if not reduced.segments:
        raise ReductionError("cannot expand an empty reduction")
    parts: list[KinTerm] = []
    for seg in reduced.segments:
        if isinstance(seg, str):
            parts.extend(spine(dictionary.pattern_for(seg)))
        else:
            parts.append(seg)
    return from_spine(parts)


@_stack_bounded
def optimal_shorten(
    dictionary: ReductionDictionary,
    term: KinTerm,
    budget: int = 200_000,
) -> ReducedTerm:
    """Exhaustive reduction oracle: depth-first search over every
    substitution order, returning a result with the fewest remaining
    concatenations.  Exponential — intended for small terms only."""
    term = _normalize(term)
    start = tuple(spine(term))
    key_cache: dict[KinTerm, str] = {}

    def seg_key(seg: KinTerm) -> str:
        key = key_cache.get(seg)
        if key is None:
            key = render(canonical(seg))
            key_cache[seg] = key
        return key

    best_state = start
    best_score = remaining_concats(ReducedTerm(start))
    seen: set[tuple[Segment, ...]] = {start}
    stack = [start]
    nodes = 0
    while stack:
        state = stack.pop()
        nodes += 1
        if nodes > budget:
            raise SearchBudgetError(
                f"exhaustive reduction exceeded the budget of {budget} states"
            )
        score = remaining_concats(ReducedTerm(state))
        if score < best_score:
            best_state, best_score = state, score
        n = len(state)
        for i in range(n):
            if isinstance(state[i], str):
                continue
            limit = min(n, i + dictionary.max_window)
            j = i
            keys: list[str] = []
            while j < limit and not isinstance(state[j], str):
                keys.append(seg_key(state[j]))  # type: ignore[arg-type]
                j += 1
                word = dictionary.word_for_key(tuple(keys))
                if word is not None:
                    child = state[:i] + (word,) + state[j:]
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
    return ReducedTerm(best_state)
