"""Seeded synthetic name registry, the size of a national one.

Real national registries are not in the repository, so the
``registry_size`` workload runs on a generated stand-in: about 100k unique
(name, gender) rows whose counts follow a Zipf-like law. Some names carry
diacritics or differ from another name only by letter case, so they share
a collation key with it and the collation cache is exercised the way real
data would. The output is a canonical ``name,gender,count`` CSV and is a
pure function of the seed: the same seed gives the same bytes.

Stdlib only, so the benchmark's parent process stays free of numpy.
"""

from __future__ import annotations

import csv
import os
import random
from pathlib import Path

ROWS = 100_000
# Zipf-like counts: count(rank) = 1 + floor(HEAD / rank ** EXPONENT)
HEAD = 4_000_000
EXPONENT = 1.1

_ONSETS = ["", "b", "br", "c", "ch", "d", "f", "g", "h", "j", "k", "l", "m",
           "n", "p", "r", "s", "sh", "t", "th", "v", "w", "y", "z"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ia", "ie", "ou"]
_CODAS = ["", "", "", "l", "n", "r", "s", "th", "x"]
_ACCENTS = {"a": "á", "e": "é", "i": "í", "o": "ö", "u": "ü"}


def _base_name(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.choice((2, 2, 3, 3, 4))):
        parts.append(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS))
    return "".join(parts).capitalize()


def _accented(name: str) -> str | None:
    for i, ch in enumerate(name):
        if ch in _ACCENTS:
            return name[:i] + _ACCENTS[ch] + name[i + 1 :]
    return None


def registry_rows(seed: int, rows: int = ROWS) -> list[tuple[str, str, int]]:
    """``rows`` unique (name, gender, count) triples, determined by ``seed``."""
    rng = random.Random(f"listfair-registry-{seed}")
    keys: dict[tuple[str, str], None] = {}
    while len(keys) < rows:
        name = _base_name(rng)
        roll = rng.random()
        genders = ["F", "M"] if roll < 0.08 else [rng.choice("FM")]
        variants = [name]
        if roll > 0.94:
            accented = _accented(name)
            if accented is not None:
                variants.append(accented)
        elif roll > 0.91:
            variants.append(name.upper() if rng.random() < 0.5 else name.lower())
        for variant in variants:
            for gender in genders:
                keys.setdefault((variant, gender))
    ordered = list(keys)[:rows]
    ranks = list(range(1, rows + 1))
    rng.shuffle(ranks)
    return [
        (name, gender, 1 + int(HEAD / rank**EXPONENT))
        for (name, gender), rank in zip(ordered, ranks)
    ]


def ensure_registry(path: Path, seed: int) -> Path:
    """Write the registry for ``seed`` to ``path`` unless it is already there."""
    if path.is_file():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with tmp.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "gender", "count"])
        writer.writerows(registry_rows(seed))
    os.replace(tmp, path)
    return path
