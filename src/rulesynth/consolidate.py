"""Collapse raw candidate causes into unique consolidated causes.

Pairs are judged in canonical order (by input index), verdicts merged
transitively with union-find.  A pair whose members already share a class
is never re-queried, so at most C(n,2) equivalence queries are issued.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import MalformedResponse, Oracle


@dataclass(frozen=True)
class MergeClass:
    representative: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class PairVerdict:
    a: str
    b: str
    equivalent: bool


@dataclass(frozen=True)
class MergePartition:
    classes: tuple[MergeClass, ...]
    pair_log: tuple[PairVerdict, ...]
    inconsistencies: tuple[str, ...] = ()

    def representatives(self) -> tuple[str, ...]:
        return tuple(c.representative for c in self.classes)


def consolidate(raw: list[str] | tuple[str, ...], oracle: Oracle) -> MergePartition:
    """Partition raw cause texts into classes of semantically equal causes.

    Input must be nonempty and free of string duplicates.  Each class's
    representative is the oracle's merged text, folded over the union
    events in canonical pair order; singleton classes keep their raw text.
    A verdict that contradicts transitivity (a~b, b~c after a/c was judged
    distinct) is logged, and the classes are still merged.
    """
    if not raw:
        raise ValueError("consolidate requires at least one raw cause")
    if len(set(raw)) != len(raw):
        raise ValueError("raw cause texts must be string-deduplicated first")

    parent = list(range(len(raw)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    representative = {i: text for i, text in enumerate(raw)}
    distinct_pairs: set[frozenset[int]] = set()
    pair_log: list[PairVerdict] = []
    inconsistencies: list[str] = []

    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            root_i, root_j = find(i), find(j)
            if root_i == root_j:
                continue  # transitivity already settled this pair
            verdict = oracle.judge_equivalent(raw[i], raw[j])
            pair_log.append(PairVerdict(raw[i], raw[j], verdict.equivalent))
            if not verdict.equivalent:
                distinct_pairs.add(frozenset((i, j)))
                continue
            if not verdict.merged_text:
                raise MalformedResponse(
                    f"equivalent verdict without merged text for {raw[i]!r} / {raw[j]!r}"
                )
            members_i = [k for k in range(len(raw)) if find(k) == root_i]
            members_j = [k for k in range(len(raw)) if find(k) == root_j]
            for x in members_i:
                for y in members_j:
                    if frozenset((x, y)) in distinct_pairs:
                        inconsistencies.append(
                            f"transitive merge of {raw[x]!r} and {raw[y]!r} "
                            "contradicts an earlier non-equivalent verdict"
                        )
            anchor = min(root_i, root_j)
            other = max(root_i, root_j)
            parent[other] = anchor
            representative[anchor] = verdict.merged_text

    classes: dict[int, list[int]] = {}
    for i in range(len(raw)):
        classes.setdefault(find(i), []).append(i)
    merged = tuple(
        MergeClass(representative[root], tuple(raw[i] for i in sorted(members)))
        for root, members in sorted(classes.items())
    )
    return MergePartition(merged, tuple(pair_log), tuple(inconsistencies))
