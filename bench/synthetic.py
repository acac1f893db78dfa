"""Seeded synthetic goals for the cause-search workload, and the reference
answers the benchmark checks them against.

A goal has `raw` candidate cause texts planted in `causes` equivalence
classes of one to three members, a planted minimal sufficient family
(one to five sets of one to four causes, reduced to an antichain) and one
unary rule over the traffic ontology per consolidated cause.  The oracle
spec that scripts these answers is built here, so the program receives
only generated inputs.

The search cost of a goal follows the shape of its family (how many sets,
how they overlap, hence how many minimal necessary sets exist).  So that
runs with different seeds do the same amount of work, the shapes come
from a fixed list of templates drawn once by the same rule; a run's seed
chooses which cause fills each template position, the classes, the raw
order, the texts and the rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

MAX_CLASS_SIZE = 3
TEMPLATE_SEED = 20260417


@dataclass(frozen=True)
class SyntheticGoal:
    text: str
    spec: dict[str, Any]  # oracle spec document, one goal
    raw: tuple[str, ...]
    classes: dict[str, tuple[str, tuple[str, ...]]]  # cause id -> (text, members)
    sufficient: frozenset[frozenset[str]]
    necessary: frozenset[frozenset[str]]


def minimal_transversals(family) -> frozenset[frozenset[str]]:
    """Inclusion-minimal hitting sets of a set family (Berge's algorithm).

    The empty family is hit by the empty set; a family holding the empty
    set has no transversal.
    """
    result = {frozenset()}
    for member in family:
        grown = {t for t in result if t & member}
        grown |= {t | {x} for t in result if not t & member for x in member}
        result = {t for t in grown if not any(other < t for other in grown)}
    return frozenset(result)


def _antichain(sets) -> frozenset[frozenset[str]]:
    kept: list[frozenset[str]] = []
    for candidate in sorted(set(sets), key=lambda s: (len(s), sorted(s))):
        if not any(k <= candidate for k in kept):
            kept.append(candidate)
    return frozenset(kept)


def family_templates(causes: int, count: int) -> list[frozenset[frozenset[int]]]:
    """`count` sufficient-family shapes over cause positions 0..causes-1."""
    rng = random.Random(TEMPLATE_SEED)
    return [
        _antichain(
            frozenset(rng.sample(range(causes), rng.randint(1, min(4, causes))))
            for _ in range(rng.randint(1, 5))
        )
        for _ in range(count)
    ]


def make_goal(
    rng: random.Random,
    template: frozenset[frozenset[int]],
    label: str,
    goal_id: str,
    causes: int,
    raw: int,
    predicates: list[str],
    principle_id: str,
) -> SyntheticGoal:
    """One goal; `goal_id` is the id the store will give the new goal."""
    if not causes <= raw <= MAX_CLASS_SIZE * causes:
        raise ValueError("raw cause count out of range for the class count")
    sizes = [1] * causes
    while sum(sizes) < raw:
        k = rng.randrange(causes)
        if sizes[k] < MAX_CLASS_SIZE:
            sizes[k] += 1
    members = [
        [f"{label} cause {k + 1} variant {m + 1}" for m in range(size)]
        for k, size in enumerate(sizes)
    ]
    raw_texts = [text for group in members for text in group]
    rng.shuffle(raw_texts)
    position = {text: i for i, text in enumerate(raw_texts)}

    # consolidation orders classes by their earliest raw member
    ordered = sorted(members, key=lambda group: min(position[t] for t in group))
    classes: dict[str, tuple[str, tuple[str, ...]]] = {}
    equivalence = []
    for k, group in enumerate(ordered, start=1):
        in_raw_order = tuple(sorted(group, key=position.__getitem__))
        text = in_raw_order[0] if len(group) == 1 else f"{label} merged cause {k}"
        if len(group) > 1:
            equivalence.append({"representative": text, "members": list(in_raw_order)})
        classes[f"{goal_id}-c{k}"] = (text, in_raw_order)

    cause_ids = list(classes)
    placed = rng.sample(cause_ids, causes)  # template position -> cause id
    sufficient = frozenset(frozenset(placed[i] for i in s) for s in template)
    in_every_set = frozenset.intersection(*sufficient)
    translations = {}
    for text, _members in classes.values():
        head, first, second = rng.sample(predicates, 3)
        negation = rng.choice(("", "not "))
        translations[text] = {
            "rule": f"forall X . {head}(X) <- {first}(X) and {negation}{second}(X)",
            "explanation": f"{text} formalized over {head}",
        }
    spec = {
        "goals": {
            goal_id: {
                "raw_causes": raw_texts,
                "equivalence_classes": equivalence,
                "individual_necessity": {
                    cause_id: {
                        "necessary": cause_id in in_every_set,
                        "rationale": f"member of every sufficient set [{principle_id}]"
                        if cause_id in in_every_set
                        else "",
                    }
                    for cause_id in cause_ids
                },
                "sufficient_family": [sorted(s) for s in sorted(sufficient, key=lambda s: (len(s), sorted(s)))],
                "translations": translations,
            }
        }
    }
    return SyntheticGoal(
        text=f"Synthetic goal {label}",
        spec=spec,
        raw=tuple(raw_texts),
        classes=classes,
        sufficient=sufficient,
        necessary=minimal_transversals(sufficient),
    )
