#!/usr/bin/env python3
"""Regenerate the shipped scenario fixtures under scenarios/.

Writes the traffic ontology, the seed knowledge-base store, the two
deterministic oracle specs, the two scenario configs, and a pre-recorded
golden transcript for replay-mode demos.  Everything is emitted through
the package's own canonical serializers so the files match what the
pipeline itself would write.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from rulesynth.fol import load_ontology, parse_rule  # noqa: E402
from rulesynth.oracle import DeterministicOracle, DeterministicOracleSpec, TranscriptOracle  # noqa: E402
from rulesynth.pipeline import ScenarioConfig, run_analyze, run_synthesize  # noqa: E402
from rulesynth.store import Goal, Invariant, Principle, TheoryStore, load_store, save_store  # noqa: E402

SCENARIOS = REPO / "scenarios"

ONTOLOGY = {
    "default_sort": "vehicle",
    "predicates": {
        name: {"arity": 1, "sorts": ["vehicle"]}
        for name in [
            "collide",
            "sd_front",
            "sd_rear",
            "lane_change",
            "dense",
            "merge_ok",
            "overtake_right",
            "impede_flow",
            "obstacle_ahead",
            "steady_speed",
            "traction",
            "emergency_brake",
            "flow_steady",
            "in_control",
            "attentive",
        ]
    },
    "numeric_attributes": {
        "speed": {"unit": "km/h", "domain": [0, 30, 50, 60, 80, 100, 130, 150]},
        "friction": {"unit": "coefficient", "domain": [0.2, 0.5, 0.8, 1.0]},
    },
    "constants": {"ego": "vehicle"},
    "comparison_ops": ["<", "<=", "=", ">=", ">", "!="],
}

PRINCIPLES = [
    ("p-control", "legal",
     "The driver must remain in control of the vehicle and attentive to surrounding traffic at all times.",
     None, "road traffic code, duty of care (authored for this fixture)"),
    ("p-speed-cap", "legal",
     "Vehicles must not exceed the permitted maximum speed of 130 km/h on this segment.",
     "forall X . not speed(X) > 130 <- true",
     "posted segment speed limit"),
    ("p-safe-distance", "legal",
     "Vehicles must keep a safe distance to the vehicles in front and behind.",
     None, "following-distance provision"),
    ("p-no-right-overtake", "legal",
     "Overtaking on the right is prohibited on this highway segment.",
     "forall X . not overtake_right(X) <- true",
     "overtaking provision"),
    ("p-merge-yield", "legal",
     "A merging vehicle must yield and must not impede the flow of traffic.",
     None, "merging priority provision"),
    ("p-min-speed", "legal",
     "Vehicles must not travel unreasonably slowly on the highway; the advisory minimum is 30 km/h.",
     None, "minimum speed advisory"),
    ("s-obstacle-collision", "safety",
     "A vehicle may collide when obstacles are present in its path.",
     None, "collision precondition"),
    ("s-friction", "safety",
     "Tire-road friction below 0.5 makes the vehicle lose traction.",
     "forall X . not traction(X) <- friction(X) < 0.5",
     "traction threshold model"),
    ("s-braking-distance", "safety",
     "Braking distance grows with speed; higher speeds require larger safety margins.",
     None, "kinematic braking model"),
    ("s-sudden-obstacle", "safety",
     "A sudden obstacle on the road requires immediate emergency braking.",
     None, "hazard response model"),
    ("s-lane-change", "safety",
     "Abrupt lane changes destabilize the vehicle and raise collision risk.",
     None, "stability model"),
    ("s-speed-friction", "safety",
     "High speed combined with low friction sharply increases the risk of losing traction.",
     None, "traction-speed interaction model"),
]

COLLIDE_RULE = "forall X . not collide(X) <- sd_front(X) and sd_rear(X) and not lane_change(X)"
DENSE_RULE = "forall X . sd_front(X) and sd_rear(X) <- not dense(X)"

INVARIANTS = [
    ("inv-collision-free", COLLIDE_RULE),
    ("inv-speed-cap", "forall X . not speed(X) > 130 <- true"),
]

GOALS = [
    ("g1", "Successfully merge into heavy traffic"),
    ("g2", "Maintain a constant speed on a highway segment"),
]

S1_RAW = [
    "Driver maintains control of the vehicle",
    "Driver is aware of surrounding traffic",
    "Vehicle is traveling at a speed that allows for safe merging",
    "Vehicle adheres to traffic laws regarding merging",
    "Sufficient distance is kept from other vehicles to merge safely",
    "No vehicles are overtaking on the right",
    "Traffic conditions allow for merging without impeding flow",
    "No sudden obstacles in the merging path",
]
S1_CONSOLIDATED = [
    "Driver maintains control of the vehicle and is aware of surrounding traffic",
    "Vehicle is traveling at a speed that allows for safe merging and adheres to traffic laws regarding merging",
    "Sufficient distance is kept from other vehicles to merge safely and no vehicles are overtaking on the right",
    "Traffic conditions allow for merging without impeding flow and no sudden obstacles in the merging path",
]

SCENARIO1 = {
    "goals": {
        "g1": {
            "raw_causes": S1_RAW,
            "equivalence_classes": [
                {"members": S1_RAW[0:2], "representative": S1_CONSOLIDATED[0]},
                {"members": S1_RAW[2:4], "representative": S1_CONSOLIDATED[1]},
                {"members": S1_RAW[4:6], "representative": S1_CONSOLIDATED[2]},
                {"members": S1_RAW[6:8], "representative": S1_CONSOLIDATED[3]},
            ],
            "individual_necessity": {
                "g1-c1": {
                    "necessary": True,
                    "rationale": (
                        "Without maintained control and awareness of surrounding traffic, "
                        "safe merging is impossible; this violates the duty of care "
                        "[p-control] and the stability constraint [s-lane-change]."
                    ),
                },
                "g1-c2": {
                    "necessary": True,
                    "rationale": (
                        "Merging outside a lawful and safe speed range violates the speed "
                        "provisions [p-speed-cap] and [p-min-speed] and creates unsafe "
                        "closing speeds [s-braking-distance]."
                    ),
                },
                "g1-c3": {"necessary": False, "rationale": ""},
                "g1-c4": {"necessary": False, "rationale": ""},
            },
            "sufficient_family": [["g1-c1", "g1-c2", "g1-c3", "g1-c4"]],
            "translations": {
                S1_CONSOLIDATED[0]: {
                    "rule": COLLIDE_RULE,
                    "explanation": (
                        "Control and awareness are modeled through safe longitudinal "
                        "distances front and rear and the absence of destabilizing lane "
                        "changes, which together ensure collision avoidance."
                    ),
                },
                S1_CONSOLIDATED[1]: {
                    "rule": "forall X . merge_ok(X) <- speed(X) >= 30 and speed(X) <= 80 and not overtake_right(X)",
                    "explanation": (
                        "A lawful merge is possible when the speed lies in the safe "
                        "merging band and the vehicle does not overtake on the right."
                    ),
                },
                S1_CONSOLIDATED[2]: {
                    "rule": DENSE_RULE,
                    "explanation": (
                        "Low traffic density implies that safe distances can be "
                        "maintained both in front of and behind the vehicle."
                    ),
                },
                S1_CONSOLIDATED[3]: {
                    "rule": "forall X . merge_ok(X) <- not impede_flow(X) and not obstacle_ahead(X)",
                    "explanation": (
                        "Merging succeeds when the manoeuvre does not impede traffic "
                        "flow and the merging path is free of sudden obstacles."
                    ),
                },
                # short-form cause texts, used when translating a single condition
                "Driver maintains control of the vehicle": {
                    "rule": COLLIDE_RULE,
                    "explanation": (
                        "Vehicle control is formalized through safe longitudinal "
                        "distances and the absence of destabilizing lane changes, "
                        "ensuring collision avoidance."
                    ),
                },
                "Sufficient distance from other vehicles to merge safely": {
                    "rule": DENSE_RULE,
                    "explanation": (
                        "Low traffic density implies that safe distances can be "
                        "maintained both in front of and behind the vehicle."
                    ),
                },
            },
        }
    }
}

S2_RAW = [
    "Driver maintains vehicle control",
    "Driver is attentive and responsive to road conditions",
    "Vehicle speed is within legal limits",
    "Vehicle speed is above minimum required speed",
    "Sufficient friction between tires and road",
    "No obstacles on the highway segment",
    "No sudden changes in traffic conditions",
    "No emergency situations requiring sudden braking",
]
S2_CONSOLIDATED = [
    "Driver maintains vehicle control and is attentive and responsive to road conditions",
    "Vehicle speed is within legal limits and above minimum required speed",
    "Sufficient friction between tires and road",
    "No obstacles on the highway segment",
    "No sudden changes in traffic conditions",
    "No emergency situations requiring sudden braking",
]

SCENARIO2 = {
    "goals": {
        "g2": {
            "raw_causes": S2_RAW,
            "equivalence_classes": [
                {"members": S2_RAW[0:2], "representative": S2_CONSOLIDATED[0]},
                {"members": S2_RAW[2:4], "representative": S2_CONSOLIDATED[1]},
            ],
            "individual_necessity": {
                "g2-c1": {
                    "necessary": True,
                    "rationale": (
                        "Without stable control and attentive response to road "
                        "conditions a constant speed cannot be held safely; this "
                        "violates the duty of care [p-control]."
                    ),
                },
                "g2-c2": {
                    "necessary": True,
                    "rationale": (
                        "Operating outside the legal speed bounds violates "
                        "[p-speed-cap] and [p-min-speed], so the effect is invalid "
                        "whenever the speed constraint fails."
                    ),
                },
                "g2-c3": {
                    "necessary": True,
                    "rationale": (
                        "Adequate tire-road friction is required to hold speed and "
                        "preserve traction; below the threshold [s-friction] is violated."
                    ),
                },
                "g2-c4": {"necessary": False, "rationale": ""},
                "g2-c5": {"necessary": False, "rationale": ""},
                "g2-c6": {"necessary": False, "rationale": ""},
            },
            "sufficient_family": [
                ["g2-c1", "g2-c2", "g2-c3", "g2-c4"],
                ["g2-c1", "g2-c2", "g2-c3", "g2-c5"],
            ],
            "translations": {
                S2_CONSOLIDATED[0]: {
                    "rule": COLLIDE_RULE,
                    "explanation": (
                        "Sustained control with attentive response is modeled as "
                        "keeping safe distances without destabilizing lane changes, "
                        "which prevents collisions."
                    ),
                },
                S2_CONSOLIDATED[1]: {
                    "rule": "forall X . steady_speed(X) <- speed(X) >= 60 and speed(X) <= 130",
                    "explanation": (
                        "A constant highway speed is possible exactly when the speed "
                        "lies between the practical minimum and the legal maximum."
                    ),
                },
                S2_CONSOLIDATED[2]: {
                    "rule": "forall X . traction(X) <- friction(X) >= 0.5",
                    "explanation": (
                        "Friction at or above the traction threshold keeps the tires "
                        "gripping, so the vehicle retains traction."
                    ),
                },
                S2_CONSOLIDATED[3]: {
                    "rule": "forall X . not emergency_brake(X) <- not obstacle_ahead(X)",
                    "explanation": (
                        "With no obstacles on the segment there is no trigger for "
                        "emergency braking."
                    ),
                },
                S2_CONSOLIDATED[4]: {
                    "rule": "forall X . flow_steady(X) <- not dense(X) and not obstacle_ahead(X)",
                    "explanation": (
                        "Traffic flow stays steady when density is low and nothing "
                        "blocks the segment."
                    ),
                },
                S2_CONSOLIDATED[5]: {
                    "rule": "forall X . steady_speed(X) <- not emergency_brake(X)",
                    "explanation": (
                        "Absent emergency braking events the vehicle can hold its "
                        "target speed."
                    ),
                },
            },
        }
    }
}


def write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def make_config(scenario: int, goal_text: str) -> dict:
    return {
        "goal": goal_text,
        "store": "merge.kb.json",
        "ontology": "traffic.onto.json",
        "oracle": {"mode": "deterministic", "spec": f"scenario{scenario}.oracle.json"},
        "grounding": {"domain_size": 3, "comparison_mode": "opaque"},
        "out": "out",
        "count_hint": 8,
    }


def make_store(onto) -> TheoryStore:
    principles = tuple(
        Principle(pid, kind, text, None if formal is None else parse_rule(formal, onto), source)
        for pid, kind, text, formal, source in PRINCIPLES
    )
    goals = tuple(Goal(gid, text, "draft") for gid, text in GOALS)
    invariants = tuple(Invariant(iid, parse_rule(text, onto)) for iid, text in INVARIANTS)
    return TheoryStore(principles=principles, goals=goals, invariants=invariants)


def make_golden_transcript() -> dict:
    """Record a synthesize+analyze pass for scenario 1 against fresh copies."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        for name in ("merge.kb.json", "traffic.onto.json", "scenario1.oracle.json",
                     "scenario1.config.json"):
            shutil.copy(SCENARIOS / name, tmp_path / name)
        config = ScenarioConfig.from_file(tmp_path / "scenario1.config.json")
        onto = load_ontology(config.ontology_path)
        store = load_store(config.store_path, onto)
        recorder = TranscriptOracle(
            live=DeterministicOracle(DeterministicOracleSpec.from_file(config.oracle_spec_path))
        )
        store, _ = run_synthesize(store, onto, recorder, config)
        store, _ = run_analyze(store, recorder, config)
        return {"version": 1, "entries": recorder.entries}


def main() -> None:
    SCENARIOS.mkdir(exist_ok=True)
    write_json(SCENARIOS / "traffic.onto.json", ONTOLOGY)
    write_json(SCENARIOS / "scenario1.oracle.json", SCENARIO1)
    write_json(SCENARIOS / "scenario2.oracle.json", SCENARIO2)
    write_json(SCENARIOS / "scenario1.config.json", make_config(1, GOALS[0][1]))
    write_json(SCENARIOS / "scenario2.config.json", make_config(2, GOALS[1][1]))
    onto = load_ontology(SCENARIOS / "traffic.onto.json")
    save_store(make_store(onto), SCENARIOS / "merge.kb.json")
    transcript = make_golden_transcript()
    write_json(SCENARIOS / "golden-scenario1.transcript.json", transcript)
    print(f"fixtures written to {SCENARIOS}")


if __name__ == "__main__":
    main()
