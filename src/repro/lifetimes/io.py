"""JSON dataset I/O in the paper's published schema (Listing 1).

The paper publishes two JSON datasets — administrative and operational
lifetimes — for other works to build on.  These helpers write and read
the same shape, so our datasets are drop-in comparable.

Writes are atomic (unique temp file + ``os.replace``), so a crash mid
export can never leave a torn half-dataset where a consumer expects a
valid one — at worst the previous complete file survives.  Reads fail
with a typed :class:`DatasetIOError` naming the file and the defect,
instead of leaking a bare ``KeyError``/``JSONDecodeError`` from deep
inside the parser.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Union

from ..asn.numbers import ASN
from ..runtime.observability import write_bytes_atomic
from ..timeline.dates import from_iso
from .records import AdminLifetime, BgpLifetime

__all__ = [
    "DatasetIOError",
    "dump_admin_dataset",
    "dump_bgp_dataset",
    "load_admin_dataset",
    "load_bgp_dataset",
]

PathLike = Union[str, Path]

class DatasetIOError(ValueError):
    """A dataset file could not be parsed into lifetime records."""


def _load_rows(path: PathLike, dataset: str) -> List[Dict[str, Any]]:
    try:
        rows = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DatasetIOError(
            f"{dataset} dataset {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(rows, list):
        raise DatasetIOError(
            f"{dataset} dataset {path} must be a JSON array of records, "
            f"got {type(rows).__name__}"
        )
    return rows


def dump_admin_dataset(
    lifetimes: Mapping[ASN, Sequence[AdminLifetime]], path: PathLike
) -> int:
    """Write the administrative dataset; returns the record count."""
    records = [
        life.to_json_dict()
        for asn in sorted(lifetimes)
        for life in lifetimes[asn]
    ]
    text = json.dumps(records, indent=1) + "\n"
    write_bytes_atomic(path, text.encode("utf-8"))
    return len(records)


def dump_bgp_dataset(
    lifetimes: Mapping[ASN, Sequence[BgpLifetime]], path: PathLike
) -> int:
    """Write the operational dataset; returns the record count."""
    records = [
        life.to_json_dict()
        for asn in sorted(lifetimes)
        for life in lifetimes[asn]
    ]
    text = json.dumps(records, indent=1) + "\n"
    write_bytes_atomic(path, text.encode("utf-8"))
    return len(records)


def load_admin_dataset(path: PathLike) -> Dict[ASN, List[AdminLifetime]]:
    """Read an administrative dataset written by :func:`dump_admin_dataset`.

    Round-tripping loses the enrichment fields (country, org, transfer
    chain) that the published schema does not carry; ``registries``
    collapses to the single ``registry`` field.
    """
    out: Dict[ASN, List[AdminLifetime]] = {}
    for i, row in enumerate(_load_rows(path, "administrative")):
        try:
            life = AdminLifetime(
                asn=int(row["ASN"]),
                start=from_iso(row["startdate"]),
                end=from_iso(row["enddate"]),
                reg_date=from_iso(row["regDate"]),
                registries=(row["registry"],),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetIOError(
                f"administrative dataset {path}: record {i} is malformed "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        out.setdefault(life.asn, []).append(life)
    for lives in out.values():
        lives.sort(key=lambda l: l.start)
    return out


def load_bgp_dataset(path: PathLike) -> Dict[ASN, List[BgpLifetime]]:
    """Read an operational dataset written by :func:`dump_bgp_dataset`."""
    out: Dict[ASN, List[BgpLifetime]] = {}
    for i, row in enumerate(_load_rows(path, "operational")):
        try:
            life = BgpLifetime(
                asn=int(row["ASN"]),
                start=from_iso(row["startdate"]),
                end=from_iso(row["enddate"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetIOError(
                f"operational dataset {path}: record {i} is malformed "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        out.setdefault(life.asn, []).append(life)
    for lives in out.values():
        lives.sort(key=lambda l: l.start)
    return out
