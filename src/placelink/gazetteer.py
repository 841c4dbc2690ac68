"""Geonames gazetteer ingestion and administrative-hierarchy tables.

Reads the published Geonames dump layout (19 tab-separated columns, UTF-8,
one entry per line) into immutable :class:`GazetteerEntry` records. Any file
in that column layout is accepted, so desk-scale subsets work the same way
as the full ``allCountries.txt`` dump.
"""

from __future__ import annotations

import logging
import sys
import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

log = logging.getLogger(__name__)

# Column order of the Geonames dump format; column 3 (alternatenames) is
# itself comma-separated.
GEONAMES_COLUMNS = (
    "geonameid",
    "name",
    "asciiname",
    "alternatenames",
    "latitude",
    "longitude",
    "feature_class",
    "feature_code",
    "country_code",
    "cc2",
    "admin1_code",
    "admin2_code",
    "admin3_code",
    "admin4_code",
    "population",
    "elevation",
    "dem",
    "timezone",
    "modification_date",
)

FEATURE_CLASSES = frozenset("AHLPRSTUV")


class GazetteerError(Exception):
    """Raised when a gazetteer file cannot be ingested."""


class CorruptGazetteerError(GazetteerError):
    """Raised when more than half of the input lines are malformed."""


@dataclass(frozen=True, slots=True)
class GazetteerEntry:
    """One row of the gazetteer. Slotted: an entry carries no ``__dict__``."""

    geoname_id: int
    name: str
    ascii_name: str
    alternative_names: tuple[str, ...]
    latitude: float
    longitude: float
    feature_class: str
    feature_code: str
    country_code: str
    admin1_code: str
    admin2_code: str
    population: int

    def name_variants(self) -> list[str]:
        """Normalized primary, ascii, and alternative names, deduplicated,
        each paired with its ascii-folded form."""
        seen: dict[str, None] = {}
        for raw in (self.name, self.ascii_name, *self.alternative_names):
            norm = normalize_name(raw)
            if not norm:
                continue
            seen.setdefault(norm)
            folded = ascii_fold(norm)
            if folded:
                seen.setdefault(folded)
        return list(seen)


def normalize_name(raw: str) -> str:
    """Canonical key form of a place name: NFC, case-folded, whitespace
    collapsed. Idempotent, never returns surrounding whitespace."""
    s = unicodedata.normalize("NFC", raw)
    s = s.casefold()
    s = " ".join(s.split())
    return unicodedata.normalize("NFC", s)


def ascii_fold(name: str) -> str:
    """Strip diacritics to the closest ascii form ("são paulo" -> "sao paulo").
    Characters with no ascii equivalent are dropped."""
    decomposed = unicodedata.normalize("NFKD", name)
    return decomposed.encode("ascii", "ignore").decode("ascii")


@dataclass
class ParseResult:
    """Entries plus skip accounting from one ingestion pass."""

    entries: list[GazetteerEntry]
    malformed_count: int
    line_count: int


def _parse_line(line: str) -> GazetteerEntry | None:
    cols = line.rstrip("\n").split("\t")
    if len(cols) != len(GEONAMES_COLUMNS):
        return None
    try:
        geoname_id = int(cols[0])
        latitude = float(cols[4])
        longitude = float(cols[5])
        population = int(cols[14]) if cols[14] else 0
    except ValueError:
        return None
    if geoname_id <= 0 or population < 0:
        return None
    if not (-90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0):
        return None
    name = cols[1].strip()
    if not normalize_name(name):
        return None
    feature_class = cols[6].strip()
    if feature_class not in FEATURE_CLASSES:
        return None
    alternatives = tuple(a.strip() for a in cols[3].split(",") if a.strip())
    ascii_name = cols[2].strip()
    # one shared object per distinct code, and per ascii name equal to name
    return GazetteerEntry(
        geoname_id=geoname_id,
        name=name,
        ascii_name=name if ascii_name == name else ascii_name,
        alternative_names=alternatives,
        latitude=latitude,
        longitude=longitude,
        feature_class=sys.intern(feature_class),
        feature_code=sys.intern(cols[7].strip()),
        country_code=sys.intern(cols[8].strip().upper()),
        admin1_code=sys.intern(cols[10].strip()),
        admin2_code=sys.intern(cols[11].strip()),
        population=population,
    )


def parse_gazetteer(
    lines: Iterable[str],
    feature_classes: Iterable[str] | None = None,
) -> ParseResult:
    """Parse a Geonames-layout line stream.

    Malformed lines are counted and skipped. Raises
    :class:`CorruptGazetteerError` when more than half of the non-empty lines
    are malformed, and :class:`GazetteerError` on duplicate geoname ids or a
    failing stream.

    feature_classes optionally restricts ingestion to the given Geonames
    classes (e.g. ``{"P", "A"}``); default keeps all classes.
    """
    keep = frozenset(feature_classes) if feature_classes is not None else None
    entries: list[GazetteerEntry] = []
    seen_ids: set[int] = set()
    malformed = 0
    total = 0
    try:
        for line in lines:
            if not line.strip():
                continue
            total += 1
            entry = _parse_line(line)
            if entry is None or entry.geoname_id in seen_ids:
                malformed += 1
                continue
            seen_ids.add(entry.geoname_id)
            if keep is not None and entry.feature_class not in keep:
                continue
            entries.append(entry)
    except (OSError, UnicodeDecodeError) as exc:
        raise GazetteerError(f"gazetteer stream failed: {exc}") from exc
    if total > 0 and malformed / total > 0.5:
        raise CorruptGazetteerError(
            f"{malformed}/{total} lines malformed; refusing to treat file as a gazetteer"
        )
    if malformed:
        log.warning("skipped %d malformed gazetteer line(s) of %d", malformed, total)
    return ParseResult(entries=entries, malformed_count=malformed, line_count=total)


def load_gazetteer(path: str, feature_classes: Iterable[str] | None = None) -> ParseResult:
    """Parse a gazetteer file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_gazetteer(handle, feature_classes=feature_classes)
    except OSError as exc:
        raise GazetteerError(f"cannot read gazetteer file {path!r}: {exc}") from exc


def entry_to_tsv_line(entry: GazetteerEntry) -> str:
    """Render one entry back into the 19-column dump layout."""
    cols = [
        str(entry.geoname_id),
        entry.name,
        entry.ascii_name,
        ",".join(entry.alternative_names),
        repr(entry.latitude),
        repr(entry.longitude),
        entry.feature_class,
        entry.feature_code,
        entry.country_code,
        "",  # cc2
        entry.admin1_code,
        entry.admin2_code,
        "",  # admin3
        "",  # admin4
        str(entry.population),
        "",  # elevation
        "",  # dem
        "",  # timezone
        "",  # modification date
    ]
    return "\t".join(cols)


def write_gazetteer_tsv(entries: Iterable[GazetteerEntry], dest: TextIO | str) -> None:
    """Serialize entries to the canonical dump layout; the round trip through
    :func:`parse_gazetteer` reproduces the entries exactly. dest may be an
    open text stream or a path."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            write_gazetteer_tsv(entries, fh)
        return
    for entry in entries:
        dest.write(entry_to_tsv_line(entry))
        dest.write("\n")


@dataclass
class AdminTables:
    """The ADM1 lookup table of a loaded gazetteer: admin1_index maps
    (country_code, admin1_code) to the geoname id of that division's ADM1
    entry."""

    admin1_index: dict[tuple[str, str], int] = field(default_factory=dict)

    def adm1_id(self, country_code: str, admin1_code: str) -> int | None:
        if not country_code or not admin1_code:
            return None
        return self.admin1_index.get((country_code, admin1_code))


def build_admin_tables(entries: Iterable[GazetteerEntry]) -> AdminTables:
    """Index ADM1 entries.

    Duplicate ADM1 entries for one (country, admin1) key keep the highest
    population (lowest id on a population tie) with a logged warning.
    """
    tables = AdminTables()
    best_pop: dict[tuple[str, str], tuple[int, int]] = {}
    for entry in entries:
        if entry.feature_code != "ADM1" or not entry.country_code or not entry.admin1_code:
            continue
        key = (entry.country_code, entry.admin1_code)
        if key in best_pop:
            log.warning(
                "duplicate ADM1 entries for %s/%s; keeping the higher-population one",
                *key,
            )
            incumbent_pop, incumbent_id = best_pop[key]
            if (entry.population, -entry.geoname_id) <= (incumbent_pop, -incumbent_id):
                continue
        best_pop[key] = (entry.population, entry.geoname_id)
        tables.admin1_index[key] = entry.geoname_id
    return tables
