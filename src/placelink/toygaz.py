"""Deterministic fixture gazetteer.

Builds a synthetic world for tests and demos: countries with a capital,
top-level admin divisions, populated places under each division, a couple of
natural features, deliberate cross-country homonym city names, and diacritic
alternative names. Entirely seeded, so fixtures are reproducible and need no
bundled data files.
"""

from __future__ import annotations

import numpy as np

from placelink.gazetteer import GazetteerEntry

_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"
_COUNTRY_SUFFIXES = ("land", "ia", "stan", "ora")
_ADM1_SUFFIXES = (" Province", " State", " Region", " District")
_DIACRITICS = str.maketrans("aeiou", "áéíöü")

_BASE_ID = 1_000_000


def _fresh_name(rng: np.random.Generator, used: set[str], suffix: str = "") -> str:
    while True:
        syllables = int(rng.integers(2, 4))
        base = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(syllables)
        )
        name = base.capitalize() + suffix
        if name not in used:
            used.add(name)
            return name


def _diacritic_variant(name: str) -> str:
    return name.translate(_DIACRITICS)


def build_toy_gazetteer(
    n_countries: int = 25,
    adm1_per_country: int = 4,
    cities_per_adm1: int = 20,
    homonym_names: int = 30,
    seed: int = 7,
) -> list[GazetteerEntry]:
    """Entry count is n_countries * (adm1_per_country * cities_per_adm1 +
    adm1_per_country + 4): one country record, one capital, the admin
    divisions, their cities, and two natural features per country."""
    if n_countries < 1 or n_countries > 26 * 26:
        raise ValueError("n_countries must be in [1, 676]")
    rng = np.random.default_rng(seed)
    used_names: set[str] = set()
    rows: list[dict] = []
    next_id = _BASE_ID

    def add_row(**kw) -> dict:
        nonlocal next_id
        row = {"geoname_id": next_id, "admin2_code": "", "alternates": [], **kw}
        next_id += 1
        rows.append(row)
        return row

    for c in range(n_countries):
        cc = chr(65 + c // 26) + chr(65 + c % 26)
        center_lat = -60.0 + (c // 6) * 24.0
        center_lon = -165.0 + (c % 6) * 55.0
        add_row(
            name=_fresh_name(rng, used_names, _COUNTRY_SUFFIXES[c % len(_COUNTRY_SUFFIXES)]),
            lat=center_lat,
            lon=center_lon,
            fclass="A",
            fcode="PCLI",
            cc=cc,
            admin1="00",
            population=int(10 ** rng.uniform(6.5, 7.7)),
        )
        add_row(
            name=_fresh_name(rng, used_names),
            lat=min(max(center_lat + rng.uniform(-1.5, 1.5), -85.0), 85.0),
            lon=center_lon + rng.uniform(-1.5, 1.5),
            fclass="P",
            fcode="PPLC",
            cc=cc,
            admin1="01",
            population=int(10 ** rng.uniform(5.5, 6.8)),
        )
        for j in range(adm1_per_country):
            code = f"{j + 1:02d}"
            add_row(
                name=_fresh_name(rng, used_names, _ADM1_SUFFIXES[j % len(_ADM1_SUFFIXES)]),
                lat=min(max(center_lat + rng.uniform(-5, 5), -85.0), 85.0),
                lon=center_lon + rng.uniform(-5, 5),
                fclass="A",
                fcode="ADM1",
                cc=cc,
                admin1=code,
                population=int(10 ** rng.uniform(4.5, 5.5)),
            )
            for _ in range(cities_per_adm1):
                add_row(
                    name=_fresh_name(rng, used_names),
                    lat=min(max(center_lat + rng.uniform(-7, 7), -85.0), 85.0),
                    lon=center_lon + rng.uniform(-7, 7),
                    fclass="P",
                    fcode="PPL",
                    cc=cc,
                    admin1=code,
                    population=int(10 ** rng.uniform(2, 6)),
                )
        add_row(
            name="Lake " + _fresh_name(rng, used_names),
            lat=min(max(center_lat + rng.uniform(-7, 7), -85.0), 85.0),
            lon=center_lon + rng.uniform(-7, 7),
            fclass="H",
            fcode="LK",
            cc=cc,
            admin1=f"{1 + int(rng.integers(adm1_per_country)):02d}",
            population=0,
        )
        add_row(
            name=_fresh_name(rng, used_names) + " Hills",
            lat=min(max(center_lat + rng.uniform(-7, 7), -85.0), 85.0),
            lon=center_lon + rng.uniform(-7, 7),
            fclass="T",
            fcode="HLLS",
            cc=cc,
            admin1=f"{1 + int(rng.integers(adm1_per_country)):02d}",
            population=0,
        )

    # rename scattered cities to shared names so distinct entries in
    # different countries collide on their primary name
    city_rows = [r for r in rows if r["fcode"] == "PPL"]
    order = [city_rows[int(i)] for i in rng.permutation(len(city_rows))]
    pointer = 0
    for _ in range(homonym_names):
        shared = _fresh_name(rng, used_names)
        group_size = int(rng.integers(2, 5))
        group: list[dict] = []
        seen_cc: set[str] = set()
        while pointer < len(order) and len(group) < group_size:
            row = order[pointer]
            pointer += 1
            if row["cc"] in seen_cc:
                continue
            group.append(row)
            seen_cc.add(row["cc"])
        for row in group:
            row["name"] = shared

    for row in rows:
        if row["fcode"] == "PPLC":
            row["alternates"] = [_diacritic_variant(row["name"]), row["name"] + " City"]
        elif row["fcode"] == "PPL" and rng.random() < 0.2:
            variant = _diacritic_variant(row["name"])
            if variant != row["name"]:
                row["alternates"] = [variant]

    return [
        GazetteerEntry(
            geoname_id=row["geoname_id"],
            name=row["name"],
            ascii_name=row["name"],
            alternative_names=tuple(row["alternates"]),
            latitude=round(row["lat"], 5),
            longitude=round(row["lon"], 5),
            feature_class=row["fclass"],
            feature_code=row["fcode"],
            country_code=row["cc"],
            admin1_code=row["admin1"],
            admin2_code=row["admin2_code"],
            population=row["population"],
        )
        for row in rows
    ]
