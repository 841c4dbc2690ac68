"""Shared fixtures: a hand-built mini gazetteer with classic ambiguities and
helpers for constructing entries tersely."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from placelink.gazetteer import GazetteerEntry, build_admin_tables
from placelink.index import IndexConfig, build_index


def make_entry(
    geoname_id: int,
    name: str,
    *,
    ascii_name: str | None = None,
    alternates: tuple[str, ...] = (),
    lat: float = 0.0,
    lon: float = 0.0,
    fclass: str = "P",
    fcode: str = "PPL",
    cc: str = "XX",
    admin1: str = "00",
    admin2: str = "",
    population: int = 0,
) -> GazetteerEntry:
    return GazetteerEntry(
        geoname_id=geoname_id,
        name=name,
        ascii_name=ascii_name if ascii_name is not None else name,
        alternative_names=alternates,
        latitude=lat,
        longitude=lon,
        feature_class=fclass,
        feature_code=fcode,
        country_code=cc,
        admin1_code=admin1,
        admin2_code=admin2,
        population=population,
    )


def entry_store(index) -> dict[int, GazetteerEntry]:
    """geoname id -> entry of an index."""
    return {entry.geoname_id: entry for entry in index.entries()}


@pytest.fixture(scope="session")
def mini_entries() -> list[GazetteerEntry]:
    """France/US fixture with the two-Paris ambiguity, admin hierarchy, and a
    few distractors."""
    return [
        make_entry(1, "France", fclass="A", fcode="PCLI", cc="FR", population=67_000_000,
                   lat=46.0, lon=2.0),
        make_entry(2, "Paris", alternates=("Lutetia",), fclass="P", fcode="PPLC", cc="FR",
                   admin1="11", population=2_138_551, lat=48.8566, lon=2.3522),
        make_entry(3, "Ile-de-France", fclass="A", fcode="ADM1", cc="FR", admin1="11",
                   population=12_000_000, lat=48.5, lon=2.5),
        make_entry(4, "United States", alternates=("USA",), fclass="A", fcode="PCLI", cc="US",
                   population=327_000_000, lat=39.76, lon=-98.5),
        make_entry(5, "Texas", fclass="A", fcode="ADM1", cc="US", admin1="TX",
                   population=29_000_000, lat=31.25, lon=-99.25),
        make_entry(6, "Paris", fclass="P", fcode="PPL", cc="US", admin1="TX",
                   population=24_839, lat=33.6609, lon=-95.5555),
        make_entry(7, "Austin", fclass="P", fcode="PPL", cc="US", admin1="TX",
                   population=964_254, lat=30.2672, lon=-97.7431),
        make_entry(8, "Washington", fclass="P", fcode="PPLC", cc="US", admin1="DC",
                   population=689_545, lat=38.9072, lon=-77.0369),
        make_entry(9, "District of Columbia", fclass="A", fcode="ADM1", cc="US", admin1="DC",
                   population=689_545, lat=38.9, lon=-77.0),
        make_entry(10, "Springfield", fclass="P", fcode="PPL", cc="US", admin1="IL",
                    population=114_394, lat=39.8017, lon=-89.6437),
        make_entry(11, "Parisot", fclass="P", fcode="PPL", cc="FR", admin1="76",
                    population=500, lat=44.26, lon=1.86),
    ]


@pytest.fixture(scope="session")
def mini_index(mini_entries):
    return build_index(mini_entries, IndexConfig())


@pytest.fixture(scope="session")
def mini_tables(mini_entries):
    return build_admin_tables(mini_entries)


def damage_bytes(data, blob: bytes) -> bytes:
    """Truncate a file's bytes, or flip one to four of them, as drawn."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
    damaged = bytearray(blob)
    positions = data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4, unique=True))
    for pos in positions:
        damaged[pos] ^= data.draw(st.integers(1, 255), label="xor")
    return bytes(damaged)
