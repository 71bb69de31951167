"""Seeded generator of valid family trees in the kisp JSON tree format.

About 100 persons per generation.  Each generation after the first is
born to the married couples of the one before, and spouses are paired
across families (never siblings), so C2-C4 hold by construction.  Birth
years advance 30 years per generation with a jitter of at most five, and
weddings fall 18-25 years after the younger spouse's birth, so C5 and C6
hold as well.  The caller still checks ``FamilyTree.is_valid``.
"""

from __future__ import annotations

import random

PER_GENERATION = 100
FIRST_YEAR = 1000
GENERATION_YEARS = 30
PLACES = ("Springfield", "Shelbyville", "Ogdenville", "North Haverbrook", "Capital City")


def generate_tree(seed: int, size: int) -> dict:
    """A tree document with exactly ``size`` persons, reproducible from ``seed``."""
    rng = random.Random(f"tree/{seed}/{size}")
    persons: list[dict] = []
    bonds: list[dict] = []
    birth_year: dict[str, int] = {}

    def add_person(generation: int) -> dict:
        pid = f"p{len(persons):05d}"
        year = FIRST_YEAR + GENERATION_YEARS * generation + rng.randint(-5, 5)
        person = {
            "id": pid,
            "name": f"Person {len(persons)}",
            "sex": rng.choice(("MALE", "FEMALE")),
            "birthdate": f"{rng.randint(1, 28):02d}.{rng.randint(1, 12):02d}.{year:04d}",
        }
        if rng.random() < 0.8:
            person["birthplace"] = rng.choice(PLACES)
        persons.append(person)
        birth_year[pid] = year
        return person

    generation = 0
    current = [add_person(0) for _ in range(min(size, PER_GENERATION))]
    family = {p["id"]: i for i, p in enumerate(current)}  # founders are unrelated
    while len(persons) < size:
        couples = _marry(rng, current, family, birth_year, bonds)
        if not couples:
            raise RuntimeError("generation left no couples; cannot grow the tree")
        generation += 1
        wanted = min(size - len(persons), PER_GENERATION)
        nxt: list[dict] = []
        family = {}
        for k in range(wanted):
            father, mother = couples[k % len(couples)] if k < len(couples) else rng.choice(couples)
            child = add_person(generation)
            bonds.append({"type": "parental", "parent": father, "child": child["id"]})
            bonds.append({"type": "parental", "parent": mother, "child": child["id"]})
            family[child["id"]] = couples.index((father, mother))
            nxt.append(child)
        current = nxt
    return {"persons": persons, "bonds": bonds}


def _marry(rng, people, family, birth_year, bonds) -> list[tuple[str, str]]:
    """Pair men and women of one generation from different families."""
    men = [p["id"] for p in people if p["sex"] == "MALE"]
    women = [p["id"] for p in people if p["sex"] == "FEMALE"]
    rng.shuffle(men)
    rng.shuffle(women)
    couples: list[tuple[str, str]] = []
    for man in men:
        for i, woman in enumerate(women):
            if family[man] != family[woman]:
                del women[i]
                couples.append((man, woman))
                year = max(birth_year[man], birth_year[woman]) + rng.randint(18, 25)
                bonds.append({
                    "type": "marital", "a": man, "b": woman,
                    "wedding": f"{rng.randint(1, 28):02d}.{rng.randint(1, 12):02d}.{year:04d}",
                })
                break
    return couples
