"""Regenerate the bundled fixtures under data/.

Everything here is deterministic (fixed seeds), so the committed files
can always be rebuilt byte-for-byte:

* ``data/fixture.csv`` - a miniature name-frequency dataset (~300 names,
  Zipf-like popularity skew, female share near 0.48). The most popular
  name, Aaron, is male and sorts first, which is exactly the shape that
  makes alphabetical first pages male-heavy.
* ``data/table_sample_random.csv`` - a fixed 10-person sample in random
  order, used as a worked example throughout the tests.
* ``data/candidates/ac_federal.csv`` - an 83-row candidate list whose
  sorted first page holds 2/5, 3/9 and 5/15 women.
* ``data/candidates/sp_federal.csv`` - a 1603-row candidate list, 31%
  female, whose first 15 sorted rows are all male.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from listfair.dataset import write_rows
from listfair.ordering import collation_key

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

FEMALE_NAMES = [
    "Abigail", "Adriana", "Agatha", "Alana", "Alessandra", "Alex", "Alice",
    "Amanda", "Amelia", "Amy", "Ana", "Andrea", "Angela", "Anna", "Antonia",
    "Ashley", "Audrey", "Aurora", "Barbara", "Beatriz", "Bella", "Betty",
    "Bianca", "Brenda", "Bruna", "Camila", "Carla", "Carmen", "Carolina",
    "Catherine", "Cecilia", "Charlotte", "Chloe", "Chloé", "Christina",
    "Clara", "Claudia", "Cristina", "Daniela", "Deborah", "Denise", "Diana",
    "Dolores", "Donna", "Dorothy", "Edith", "Elena", "Eliane", "Elisa",
    "Elizabeth", "Ella", "Emily", "Emma", "Erica", "Esther", "Eva", "Evelyn",
    "Fabiana", "Fatima", "Fernanda", "Flavia", "Florence", "Frances",
    "Francisca", "Gabriela", "Gloria", "Grace", "Hannah", "Helen", "Helena",
    "Hélène", "Ingrid", "Inês", "Irene", "Isabel", "Isabella", "Jacqueline",
    "Janet", "Jessica", "Joana", "Josephine", "Julia", "Juliana", "Karen",
    "Katherine", "Kelly", "Laura", "Leticia", "Lilian", "Linda", "Lisa",
    "Livia", "Lorena", "Lucia", "Luiza", "Luna", "Madison", "Marcia",
    "Margaret", "Maria", "Mariana", "Marie", "Marina", "Marta", "Martha",
    "Mary", "Melissa", "Mia", "Michelle", "Monica", "Nancy", "Natalia",
    "Nicole", "Nina", "Olivia", "Pamela", "Patricia", "Paula", "Pauline",
    "Priscila", "Rachel", "Raquel", "Rebecca", "Regina", "Renata", "Renée",
    "Rita", "Rosa", "Rose", "Ruth", "Sandra", "Sarah", "Silvia", "Simone",
    "Sofia", "Sonia", "Sophie", "Stella", "Susan", "Tania", "Tatiana",
    "Teresa", "Valentina", "Valeria", "Vanessa", "Vera", "Veronica",
    "Victoria", "Virginia", "Vivian", "Wendy", "Yasmin", "Yolanda", "Zoe",
]

MALE_NAMES = [
    "Aaron", "Adam", "Adrian", "Alan", "Albert", "Alejandro", "Alex",
    "Alexandre", "Alfredo", "Andre", "André", "Andrew", "Anthony", "Antonio",
    "Arthur", "Augusto", "Austin", "Benjamin", "Bernard", "Brandon", "Brian",
    "Bruno", "Caio", "Caleb", "Carlos", "Cesar", "Charles", "Christian",
    "Christopher", "Claude", "Daniel", "David", "Davi", "Dennis", "Diego",
    "Dominic", "Douglas", "Dylan", "Eduardo", "Edward", "Elias", "Emanuel",
    "Emilio", "Enzo", "Eric", "Ernesto", "Ethan", "Eugene", "Fabio",
    "Felipe", "Fernando", "Francisco", "Frank", "Gabriel", "Gary", "George",
    "Gerald", "Gilberto", "Gregory", "Guilherme", "Gustavo", "Harold",
    "Harry", "Hector", "Henrique", "Henry", "Hugo", "Ian", "Igor", "Isaac",
    "Ivan", "Jack", "Jacob", "Jaime", "James", "Jason", "Javier", "Jean",
    "Jeffrey", "Jeremy", "João", "Joaquim", "Jonathan", "Jorge", "Jose",
    "José", "Joseph", "Joshua", "Juan", "Julio", "Justin", "Keith", "Kevin",
    "Kyle", "Larry", "Lawrence", "Leandro", "Leonardo", "Louis", "Lucas",
    "Luis", "Luiz", "Manuel", "Marcelo", "Marcos", "Mario", "Mark", "Martin",
    "Mateus", "Matthew", "Mauricio", "Michael", "Miguel", "Nathan", "Nelson",
    "Nicholas", "Nicolas", "Noah", "Oliver", "Oscar", "Otavio", "Pablo",
    "Patrick", "Paulo", "Pedro", "Peter", "Philip", "Pierre", "Rafael",
    "Ralph", "Ramon", "Raul", "Raymond", "Renato", "Ricardo", "Richard",
    "Robert", "Roberto", "Rodrigo", "Roger", "Ronald", "Ruben", "Ryan",
    "Salvador", "Samuel", "Scott", "Sebastian", "Sergio", "Simon", "Stephen",
    "Steven", "Theodore", "Thiago", "Thomas", "Timothy", "Tyler", "Victor",
    "Vincent", "Vinicius", "Walter", "Wayne", "William", "Xavier", "Yuri",
    "Zachary",
]

TABLE_SAMPLE = [
    ("Brian", "M"), ("Aaron", "M"), ("Christina", "F"), ("Brian", "M"),
    ("Christina", "F"), ("Amy", "F"), ("Ashley", "F"), ("Amy", "F"),
    ("Andrew", "M"), ("Brian", "M"),
]

# sorted leading block of the 83-row audit fixture: 2 women in the first
# 5 rows, 3 in the first 9, 5 in the first 15
AC_LEADERS = [
    ("Aaron", "M"), ("Adriana", "F"), ("Agatha", "F"), ("Alan", "M"),
    ("Albert", "M"), ("Alice", "F"), ("Anthony", "M"), ("Arthur", "M"),
    ("Austin", "M"), ("Barbara", "F"), ("Beatriz", "F"), ("Bernard", "M"),
    ("Bill", "M"), ("Bob", "M"), ("Brad", "M"),
]


def zipf_counts(n_names: int, rng: np.random.Generator, total: int) -> np.ndarray:
    weights = (np.arange(n_names) + 1.0) ** -0.85
    counts = np.maximum(1, np.round(weights / weights.sum() * total)).astype(int)
    return counts


def build_fixture_dataset() -> list[tuple[str, str, int]]:
    rng = np.random.default_rng(180511)
    pool = [(name, "F") for name in FEMALE_NAMES] + [
        (name, "M") for name in MALE_NAMES if name != "Aaron"
    ]
    order = rng.permutation(len(pool))
    ranked = [("Aaron", "M")] + [pool[i] for i in order]
    counts = zipf_counts(len(ranked), rng, total=1_200_000)

    female_total = sum(c for (name, g), c in zip(ranked, counts) if g == "F")
    male_total = sum(c for (name, g), c in zip(ranked, counts) if g == "M")
    target = 0.48
    factor = (target / (1.0 - target)) * male_total / female_total
    rows = []
    for (name, gender), count in zip(ranked, counts):
        if gender == "F":
            count = max(1, int(round(count * factor)))
        rows.append((name, gender, int(count)))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def choose_names(pool: list[str], size: int, rng: np.random.Generator) -> list[str]:
    weights = (np.arange(len(pool)) + 1.0) ** -0.8
    indices = rng.choice(len(pool), size=size, replace=True, p=weights / weights.sum())
    return [pool[i] for i in indices]


def build_ac_candidates() -> list[tuple[str, str]]:
    rng = np.random.default_rng(411702)
    floor = collation_key("Brad")
    females = [n for n in FEMALE_NAMES if collation_key(n) > floor]
    males = [n for n in MALE_NAMES if collation_key(n) > floor]
    rows = list(AC_LEADERS)
    rows += [(name, "F") for name in choose_names(females, 23, rng)]
    rows += [(name, "M") for name in choose_names(males, 45, rng)]
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def build_sp_candidates() -> list[tuple[str, str]]:
    rng = np.random.default_rng(98244)
    floor = collation_key("Adam")
    females = [n for n in FEMALE_NAMES if collation_key(n) > floor]
    males = [n for n in MALE_NAMES if collation_key(n) > floor]
    leaders = [("Aaron", "M")] * 10 + [("Adam", "M")] * 12
    n_female = 497
    n_male = 1603 - len(leaders) - n_female
    rows = list(leaders)
    rows += [(name, "F") for name in choose_names(females, n_female, rng)]
    rows += [(name, "M") for name in choose_names(males, n_male, rng)]
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_rows(fh, header, rows)


def main() -> None:
    dataset_rows = build_fixture_dataset()
    write_csv(DATA_DIR / "fixture.csv", ["name", "gender", "count"], dataset_rows)
    female = sum(c for _, g, c in dataset_rows if g == "F")
    total = sum(c for _, _, c in dataset_rows)
    print(f"fixture.csv: {len(dataset_rows)} names, female share {female / total:.4f}")
    print(f"  top name: {dataset_rows[0]}")

    write_csv(
        DATA_DIR / "table_sample_random.csv",
        ["position", "name", "gender"],
        [(i, name, g) for i, (name, g) in enumerate(TABLE_SAMPLE, start=1)],
    )

    ac = build_ac_candidates()
    write_csv(DATA_DIR / "candidates" / "ac_federal.csv", ["name", "gender"], ac)
    print(f"ac_federal.csv: {len(ac)} rows, {sum(1 for _, g in ac if g == 'F')} female")

    sp = build_sp_candidates()
    write_csv(DATA_DIR / "candidates" / "sp_federal.csv", ["name", "gender"], sp)
    print(f"sp_federal.csv: {len(sp)} rows, {sum(1 for _, g in sp if g == 'F')} female")


if __name__ == "__main__":
    main()
