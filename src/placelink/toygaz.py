"""Deterministic fixture gazetteer.

Builds a synthetic world for tests and demos: countries with a capital,
top-level admin divisions, populated places under each division, a couple of
natural features, deliberate cross-country homonym city names, and diacritic
alternative names. Entirely seeded, so fixtures are reproducible and need no
bundled data files.

Every random value is drawn as an array over the whole world: the names in
blocks of candidates, then coordinates, populations, the admin1 codes of the
natural features, the homonym groups and the diacritic coin flips.
"""

from __future__ import annotations

import numpy as np

from placelink.gazetteer import GazetteerEntry

_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"
_COUNTRY_SUFFIXES = ("land", "ia", "stan", "ora")
_ADM1_SUFFIXES = (" Province", " State", " Region", " District")
_DIACRITICS = str.maketrans("aeiou", "áéíöü")

_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_N_SYL = len(_SYLLABLES)
# a name is coded as its syllable indexes in base _N_SYL: two-syllable names
# take codes [0, _N_SYL**2), three-syllable names the _N_SYL**3 codes above
_NAME_CODES = _N_SYL**2 + _N_SYL**3
_FIRST = [s.capitalize() for s in _SYLLABLES]
_LAST = _SYLLABLES + [""]  # index _N_SYL: no third syllable

# one row per kind of entry: feature class, feature code, half-width in
# degrees of the box around the country centre, log10 population range
_KINDS = (
    ("A", "PCLI", 0.0, (6.5, 7.7)),
    ("P", "PPLC", 1.5, (5.5, 6.8)),
    ("A", "ADM1", 5.0, (4.5, 5.5)),
    ("P", "PPL", 7.0, (2.0, 6.0)),
    ("H", "LK", 7.0, (0.0, 0.0)),
    ("T", "HLLS", 7.0, (0.0, 0.0)),
)
_PCLI, _PPLC, _ADM1, _PPL, _LK, _HLLS = range(len(_KINDS))

_BASE_ID = 1_000_000


def _fresh_names(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct names of two or three syllables. Candidates are drawn in
    blocks, each a uniform syllable count and a uniform draw over the
    consonant-vowel syllables; a candidate is kept only if no earlier one
    had the same syllables."""
    if n > _NAME_CODES:
        raise ValueError(f"cannot draw {n} distinct names; there are {_NAME_CODES}")
    used = np.zeros(_NAME_CODES, dtype=bool)
    blocks = []
    need = n
    while need:
        size = 2 * need + 64
        three = rng.integers(2, 4, size=size) == 3
        syl = rng.integers(_N_SYL, size=(size, 3))
        pair = syl[:, 0] * _N_SYL + syl[:, 1]
        code = np.where(three, _N_SYL**2 + pair * _N_SYL + syl[:, 2], pair)
        # the first of equal codes in draw order, if no earlier block took it
        first = np.sort(np.unique(code, return_index=True)[1])
        fresh = code[first][~used[code[first]]][:need]
        used[fresh] = True
        blocks.append(fresh)
        need -= len(fresh)
    code = np.concatenate(blocks)
    two = code < _N_SYL**2
    rest = np.where(two, code, code - _N_SYL**2)
    pair = np.where(two, rest, rest // _N_SYL)
    last = np.where(two, _N_SYL, rest % _N_SYL)
    return [
        _FIRST[a] + _SYLLABLES[b] + _LAST[c]
        for a, b, c in zip((pair // _N_SYL).tolist(), (pair % _N_SYL).tolist(), last.tolist())
    ]


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
    divisions, their cities, and two natural features per country.

    Each country's rows are in that order, with each division followed by
    its cities. Names are unique except for the homonym_names groups of 2-4
    cities in distinct countries that share one name."""
    if n_countries < 1 or n_countries > 26 * 26:
        raise ValueError("n_countries must be in [1, 676]")
    # kind, admin1 code (-1: drawn below) and name pattern of each row of one
    # country; None stands for the country name and its suffix
    template = [(_PCLI, 0, None), (_PPLC, 1, "{}")]
    for j in range(adm1_per_country):
        template.append((_ADM1, j + 1, "{}" + _ADM1_SUFFIXES[j % len(_ADM1_SUFFIXES)]))
        template += [(_PPL, j + 1, "{}")] * cities_per_adm1
    template += [(_LK, -1, "Lake {}"), (_HLLS, -1, "{} Hills")]
    per_country = len(template)
    n = n_countries * per_country
    kinds, template_admin1, patterns = zip(*template)
    kind = np.tile(kinds, n_countries)
    country = np.repeat(np.arange(n_countries), per_country)

    rng = np.random.default_rng(seed)
    names = _fresh_names(rng, n + homonym_names)
    shared_names, names = names[n:], names[:n]

    half_width = np.array([k[2] for k in _KINDS])[kind]
    lat = -60.0 + (country // 6) * 24.0 + half_width * rng.uniform(-1.0, 1.0, n)
    lon = -165.0 + (country % 6) * 55.0 + half_width * rng.uniform(-1.0, 1.0, n)
    # PCLI rows stay at the centre unclipped: from country 42 on that lies
    # above latitude 90 (ROADMAP item 12)
    lat = np.where(kind == _PCLI, lat, np.clip(lat, -85.0, 85.0))
    low, high = np.array([k[3] for k in _KINDS]).T[:, kind]
    population = np.floor(10 ** rng.uniform(low, high)).astype(np.int64)
    population[(kind == _LK) | (kind == _HLLS)] = 0
    admin1 = np.tile(template_admin1, n_countries)
    admin1[admin1 < 0] = rng.integers(1, adm1_per_country + 1, size=2 * n_countries)

    # rename scattered cities to shared names so distinct entries in
    # different countries collide on their primary name
    cities = np.flatnonzero(kind == _PPL)
    order = cities[rng.permutation(len(cities))].tolist()
    group_sizes = rng.integers(2, 5, size=homonym_names).tolist()
    pointer = 0
    for shared, group_size in zip(shared_names, group_sizes):
        group: list[int] = []
        seen: set[int] = set()
        while pointer < len(order) and len(group) < group_size:
            row = order[pointer]
            pointer += 1
            if row // per_country in seen:
                continue
            group.append(row)
            seen.add(row // per_country)
        for row in group:
            names[row] = shared

    alternates: list[tuple[str, ...]] = [()] * n
    for row in cities[rng.random(len(cities)) < 0.2].tolist():
        alternates[row] = (_diacritic_variant(names[row]),)
    for row in np.flatnonzero(kind == _PPLC).tolist():
        alternates[row] = (_diacritic_variant(names[row]), names[row] + " City")
    names = [
        (pattern or "{}" + _COUNTRY_SUFFIXES[c % len(_COUNTRY_SUFFIXES)]).format(name)
        for c, pattern, name in zip(country.tolist(), patterns * n_countries, names)
    ]

    country_codes = [chr(65 + c // 26) + chr(65 + c % 26) for c in range(n_countries)]
    admin1_codes = [f"{a:02d}" for a in range(adm1_per_country + 1)]
    return [
        GazetteerEntry(
            geoname_id=geoname_id,
            name=name,
            ascii_name=name,
            alternative_names=alts,
            latitude=y,
            longitude=x,
            feature_class=_KINDS[k][0],
            feature_code=_KINDS[k][1],
            country_code=country_codes[c],
            admin1_code=admin1_codes[a],
            admin2_code="",
            population=pop,
        )
        for geoname_id, name, alts, y, x, k, c, a, pop in zip(
            range(_BASE_ID, _BASE_ID + n),
            names,
            alternates,
            np.round(lat, 5).tolist(),
            np.round(lon, 5).tolist(),
            kind.tolist(),
            country.tolist(),
            admin1.tolist(),
            population.tolist(),
        )
    ]
