"""Columnar delegation-restoration engine (``delegation-table/v1``).

The object engine (:mod:`.view` + the per-step modules) walks
dict-of-``Stint``-list timelines; building those views dominates the
registry half of the pipeline, and fanning them out pickles whole
``RegistryView`` timelines per task (the 12x ``process:N`` blowup the
scaling benchmark exposed).  This module packs the delegation side
into columns instead:

* each registry's archive rows are packed once into a single-file
  container — 8-byte magic, ``<u4`` header length, canonical-JSON
  header, 64-byte-aligned little-endian sections — holding 24-byte
  explicit little-endian rows (asn / clip-free start / end /
  registration date / country pool id / status / feed / opaque pool
  id) in **exact timeline order** (per-ASN list order is semantic:
  step (iv)'s tie-breaks depend on it), plus per-feed sorted
  unavailable-day arrays and CSR string pools;
* view assembly (era stitching, extended-over-regular authority)
  becomes whole-array clipping + one stable ``np.lexsort``, replicating
  ``build_registry_view``'s stable ``(start, end)`` sort bit for bit;
* the five per-registry §3.1 steps run as *candidate detection* over
  the sorted arrays (a provable superset of the ASNs each step can
  touch — see the per-step notes below) followed by the **unmodified
  object step functions** over a sub-view holding only those ASNs, so
  counters, notes and mutations are the object engine's own;
* ``process:N`` fan-out ships ``(handle, registry)`` descriptors —
  workers re-open the container themselves (mmap via a ``per_process``
  memo) instead of receiving pickled timelines.

Exactness contract: for every step, an ASN outside the candidate set
provably receives zero mutations and zero counter bumps from the object
step, so running the object step over the candidate sub-view yields the
same view content and the same :class:`RestorationReport` as running it
over the full view.  The container preserves timeline dict order and
per-ASN list order, so decoded views are ``==`` to object-built ones.

Mmap lifetime: arrays handed out by a :class:`DelegationTable` alias
the mapping held by the table itself; do not let them outlive it
(DESIGN.md §9).
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from ..asn.numbers import ASN
from ..rir.archive import DelegationArchive, Stint
from ..rir.model import DelegationRecord, Status
from ..rir.overlay import EXTENDED, REGULAR
from ..rir.pitfalls import ERX_PLACEHOLDER_DATE
from ..runtime.cache import DELEGATION_TABLE_VERSION, ArtifactCache
from ..runtime.executor import per_process
from ..runtime.ledger import record_boundary
from ..runtime.observability import write_bytes_atomic
from ..timeline.dates import Day
from .duplicates import resolve_duplicate_records
from .gaps import bridge_unavailable_gaps
from .records import DEFAULT_MAX_GAP, recover_dropped_records
from .regdates import restore_registration_dates
from .report import RestorationReport
from .sameday import measure_sameday_divergence
from .view import RegistryView

__all__ = [
    "DelegationTable",
    "obtain_table",
    "restore_registry_table_task",
]

_MAGIC = b"DELGTAB1"

#: Row schema: explicit little-endian fields, naturally packed to 24
#: bytes.  ``reg_date``/``opaque`` use ``-1`` as the ``None`` sentinel
#: (day ordinals and pool ids are non-negative); ``cc`` is a pool id
#: (country codes are never ``None``); ``status`` indexes
#: ``tuple(Status)``; ``feed`` is 0 (regular) or 1 (extended).
ROW_DTYPE = np.dtype(
    [
        ("asn", "<u4"),
        ("start", "<i4"),
        ("end", "<i4"),
        ("reg_date", "<i4"),
        ("cc", "<u2"),
        ("status", "<u1"),
        ("feed", "<u1"),
        ("opaque", "<i4"),
    ]
)

_STATUSES: Tuple[Status, ...] = tuple(Status)
_STATUS_INDEX: Dict[Status, int] = {s: i for i, s in enumerate(_STATUSES)}
_DELEGATED_LUT = np.array([s.is_delegated for s in _STATUSES], dtype=bool)

_FEEDS = ((0, "regular", REGULAR), (1, "extended", EXTENDED))


def _intern(index: Dict[str, int], value: str) -> int:
    idx = index.get(value)
    if idx is None:
        idx = len(index)
        index[value] = idx
    return idx


def _encode_pool(strings: Iterable[str]) -> Tuple[np.ndarray, np.ndarray]:
    blobs = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(blobs) + 1, dtype="<u4")
    if blobs:
        np.cumsum([len(b) for b in blobs], out=offsets[1:])
    blob = np.frombuffer(b"".join(blobs), dtype="<u1") if blobs else np.empty(
        0, dtype="<u1"
    )
    return offsets, blob


def _decode_pool(offsets: np.ndarray, blob: np.ndarray) -> List[str]:
    raw = blob.tobytes()
    offs = offsets.tolist()
    return [
        raw[offs[i]:offs[i + 1]].decode("utf-8") for i in range(len(offs) - 1)
    ]


def _encode_timeline(
    timeline: Mapping[ASN, List[Stint]],
    feed_code: int,
    cc_index: Dict[str, int],
    opq_index: Dict[str, int],
) -> np.ndarray:
    asns: List[int] = []
    starts: List[int] = []
    ends: List[int] = []
    dates: List[int] = []
    ccs: List[int] = []
    stats: List[int] = []
    opqs: List[int] = []
    for asn, stints in timeline.items():
        for stint in stints:
            rec = stint.record
            if rec.asn != asn:
                raise ValueError(
                    f"timeline key {asn} disagrees with record asn {rec.asn}"
                )
            asns.append(int(asn))
            starts.append(int(stint.start))
            ends.append(int(stint.end))
            dates.append(-1 if rec.reg_date is None else int(rec.reg_date))
            ccs.append(_intern(cc_index, rec.cc))
            stats.append(_STATUS_INDEX[rec.status])
            opqs.append(
                -1 if rec.opaque_id is None else _intern(opq_index, rec.opaque_id)
            )
    out = np.empty(len(asns), dtype=ROW_DTYPE)
    out["asn"] = asns
    out["start"] = starts
    out["end"] = ends
    out["reg_date"] = dates
    out["cc"] = ccs
    out["status"] = stats
    out["feed"] = feed_code
    out["opaque"] = opqs
    return out


@dataclass
class AssembledRegistry:
    """One registry's era-stitched rows, clipped, as columns.

    The ``*`` columns are in object concat order (clipped regular block
    first, extended block after — the order ``build_registry_view``
    appends in); the ``s_*`` columns are the same rows under the stable
    ``(asn, start, end)`` lexsort, which within one ASN is exactly the
    object view's final per-ASN list order.
    """

    asn: np.ndarray
    start: np.ndarray
    end: np.ndarray
    reg_date: np.ndarray
    cc: np.ndarray
    status: np.ndarray
    opaque: np.ndarray
    s_asn: np.ndarray
    s_start: np.ndarray
    s_end: np.ndarray
    s_reg_date: np.ndarray
    s_cc: np.ndarray
    s_status: np.ndarray
    s_opaque: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.asn)


class DelegationTable:
    """Packed per-registry delegation rows + day-availability arrays.

    Sections (all little-endian, 64-byte aligned in the container):

    ``rows:<registry>``
        ``ROW_DTYPE`` rows, regular-feed block first then extended,
        each block in exact ``archive.timeline()`` order.
    ``unavail:<registry>:<feed>``
        sorted ``<i4`` unavailable-day ordinals for that feed.
    ``pool:cc:*`` / ``pool:opaque:*``
        CSR string pools (offsets + utf-8 blob) shared by all rows.
    """

    def __init__(
        self,
        meta: Dict[str, Dict[str, Any]],
        sections: Dict[str, np.ndarray],
        cc_pool: List[str],
        opaque_pool: List[str],
        end_day: Day,
        *,
        source: Optional[Path] = None,
        _mmap_obj=None,
    ) -> None:
        self._meta = meta
        self._sections = sections
        self._cc_pool = cc_pool
        self._opaque_pool = opaque_pool
        self.end_day = end_day
        #: The container file backing this table, when it has one
        #: (mmap fan-out needs it).
        self.source = source
        # The mmap (or buffer) owning the row memory; arrays built on
        # top of it must not outlive this object.
        self._mmap_obj = _mmap_obj
        # Decoded-record interning: rows repeating the same
        # (asn, cc, date, status, opaque) share one frozen record, as
        # the object timeline does across merged stints.
        self._rec_cache: Dict[Tuple, DelegationRecord] = {}
        self._regular_order: Dict[str, np.ndarray] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def from_archive(cls, archive: DelegationArchive) -> "DelegationTable":
        """Encode every registry's feeds, preserving timeline order."""
        cc_index: Dict[str, int] = {}
        opq_index: Dict[str, int] = {}
        sections: Dict[str, np.ndarray] = {}
        meta: Dict[str, Dict[str, Any]] = {}
        for registry in sorted(archive.registries()):
            entry: Dict[str, Any] = {
                "n_regular": 0,
                "n_extended": 0,
                "windows": {"regular": None, "extended": None},
            }
            parts: List[np.ndarray] = []
            for feed_code, feed_name, feed in _FEEDS:
                key = (registry, feed)
                if not archive.has_source(key):
                    continue
                window = archive.window(key)
                entry["windows"][feed_name] = [
                    int(window.first_day),
                    int(window.last_day),
                ]
                block = _encode_timeline(
                    archive.timeline(key), feed_code, cc_index, opq_index
                )
                entry["n_regular" if feed_code == 0 else "n_extended"] = len(block)
                parts.append(block)
                sections[f"unavail:{registry}:{feed_name}"] = np.asarray(
                    sorted(archive.unavailable_days(key)), dtype="<i4"
                )
            sections[f"rows:{registry}"] = (
                np.concatenate(parts) if parts else np.empty(0, dtype=ROW_DTYPE)
            )
            meta[registry] = entry
        cc_off, cc_blob = _encode_pool(cc_index)
        opq_off, opq_blob = _encode_pool(opq_index)
        sections["pool:cc:offsets"] = cc_off
        sections["pool:cc:blob"] = cc_blob
        sections["pool:opaque:offsets"] = opq_off
        sections["pool:opaque:blob"] = opq_blob
        return cls(
            meta,
            sections,
            list(cc_index),
            list(opq_index),
            int(archive.end_day),
        )

    # -- serialization -------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the single-file container format.

        Layout: 8-byte magic, ``<u4`` header length, canonical-JSON
        header, then each section padded to a 64-byte boundary
        (DESIGN.md §9).  All sections are little-endian by dtype
        construction, so the container is byte-identical across
        platforms.
        """
        names = sorted(self._sections)
        sections = [(name, self._sections[name]) for name in names]
        header: Dict[str, object] = {
            "format": DELEGATION_TABLE_VERSION,
            "end_day": int(self.end_day),
            "registries": {r: self._meta[r] for r in sorted(self._meta)},
            "sections": [],
        }

        def layout(header_len: int) -> List[int]:
            offsets = []
            pos = 8 + 4 + header_len
            for _, arr in sections:
                pos = (pos + 63) & ~63
                offsets.append(pos)
                pos += arr.nbytes
            return offsets

        def render(offsets: List[int]) -> bytes:
            header["sections"] = [
                {
                    "name": name,
                    "dtype": arr.dtype.descr if arr.dtype.names else str(arr.dtype),
                    "count": len(arr),
                    "offset": off,
                }
                for (name, arr), off in zip(sections, offsets)
            ]
            return json.dumps(header, sort_keys=True).encode("utf-8")

        blob = render(layout(0))
        while True:
            new_blob = render(layout(len(blob)))
            if len(new_blob) == len(blob):
                blob = new_blob
                break
            blob = new_blob

        offsets = layout(len(blob))
        total = (
            offsets[-1] + sections[-1][1].nbytes if sections else 12 + len(blob)
        )
        out = bytearray(total)
        out[0:8] = _MAGIC
        out[8:12] = len(blob).to_bytes(4, "little")
        out[12:12 + len(blob)] = blob
        for (_, arr), off in zip(sections, offsets):
            raw = arr.tobytes()
            out[off:off + len(raw)] = raw
        return bytes(out)

    def to_file(self, path: Union[str, Path]) -> Path:
        return write_bytes_atomic(path, self.to_bytes())

    @classmethod
    def _from_buffer(
        cls, buf, *, source: Optional[Path] = None, mmap_obj=None
    ) -> "DelegationTable":
        if bytes(buf[0:8]) != _MAGIC:
            raise ValueError("not a delegation-table container (bad magic)")
        header_len = int.from_bytes(bytes(buf[8:12]), "little")
        header = json.loads(bytes(buf[12:12 + header_len]).decode("utf-8"))
        if header.get("format") != DELEGATION_TABLE_VERSION:
            raise ValueError(
                f"unsupported delegation-table format {header.get('format')!r}"
            )
        sections: Dict[str, np.ndarray] = {}
        for sec in header["sections"]:
            descr = sec["dtype"]
            dtype = np.dtype(
                [tuple(f) for f in descr] if isinstance(descr, list) else descr
            )
            sections[sec["name"]] = np.frombuffer(
                buf, dtype=dtype, count=int(sec["count"]), offset=int(sec["offset"])
            )
        cc_pool = _decode_pool(
            sections["pool:cc:offsets"], sections["pool:cc:blob"]
        )
        opq_pool = _decode_pool(
            sections["pool:opaque:offsets"], sections["pool:opaque:blob"]
        )
        return cls(
            header["registries"],
            sections,
            cc_pool,
            opq_pool,
            int(header["end_day"]),
            source=source,
            _mmap_obj=mmap_obj,
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DelegationTable":
        return cls._from_buffer(blob)

    @classmethod
    def from_file(
        cls, path: Union[str, Path], *, mmap: bool = True
    ) -> "DelegationTable":
        """Open a container file; ``mmap=True`` maps it zero-copy."""
        path = Path(path)
        if not mmap:
            return cls._from_buffer(path.read_bytes(), source=path)
        with open(path, "rb") as fh:
            mm = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
        return cls._from_buffer(memoryview(mm), source=path, mmap_obj=mm)

    # -- accessors -----------------------------------------------------

    def registries(self) -> Tuple[str, ...]:
        return tuple(sorted(self._meta))

    def rows(self, registry: str) -> np.ndarray:
        return self._sections[f"rows:{registry}"]

    def _window(self, registry: str, feed_name: str) -> Optional[Tuple[int, int]]:
        win = self._meta[registry]["windows"][feed_name]
        return None if win is None else (int(win[0]), int(win[1]))

    def unavailable(self, registry: str, feed_name: str) -> np.ndarray:
        return self._sections.get(
            f"unavail:{registry}:{feed_name}", np.empty(0, dtype="<i4")
        )

    def _bounds(self, registry: str):
        rw = self._window(registry, "regular")
        ew = self._window(registry, "extended")
        if rw is None and ew is None:
            raise ValueError(f"{registry} publishes no delegation files")
        first = min(w[0] for w in (rw, ew) if w is not None)
        last = max(w[1] for w in (rw, ew) if w is not None)
        ext_start = ew[0] if ew is not None else None
        return rw, ew, first, last, ext_start

    def _auth_unavailable(self, registry: str) -> np.ndarray:
        """Sorted unavailable days of the authoritative feed mix."""
        rw, ew, _, _, ext_start = self._bounds(registry)
        parts = []
        if rw is not None:
            days = self.unavailable(registry, "regular")
            if ext_start is not None:
                days = days[days <= ext_start - 1]
            parts.append(days)
        if ew is not None:
            parts.append(self.unavailable(registry, "extended"))
        if not parts:
            return np.empty(0, dtype="<i4")
        return np.unique(np.concatenate(parts))

    # -- assembly ------------------------------------------------------

    def assemble(self, registry: str) -> AssembledRegistry:
        """Era-stitch one registry's rows as clipped column arrays."""
        rw, ew, _, _, ext_start = self._bounds(registry)
        rows = self.rows(registry)
        n_reg = int(self._meta[registry]["n_regular"])
        picked: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        if rw is not None:
            lo = rw[0]
            hi = min(rw[1], ext_start - 1) if ext_start is not None else rw[1]
            if hi >= lo:
                block = rows[:n_reg]
                cs = np.maximum(block["start"], np.int32(lo))
                ce = np.minimum(block["end"], np.int32(hi))
                keep = cs <= ce
                picked.append((block, cs, ce, keep))
        if ew is not None:
            block = rows[n_reg:]
            cs = np.maximum(block["start"], np.int32(ew[0]))
            ce = np.minimum(block["end"], np.int32(ew[1]))
            keep = cs <= ce
            picked.append((block, cs, ce, keep))

        def col(field: str) -> np.ndarray:
            if not picked:
                return np.empty(0, dtype=ROW_DTYPE[field])
            return np.concatenate([blk[field][keep] for blk, _, _, keep in picked])

        asn = col("asn")
        start = (
            np.concatenate([cs[keep] for _, cs, _, keep in picked])
            if picked
            else np.empty(0, dtype="<i4")
        )
        end = (
            np.concatenate([ce[keep] for _, _, ce, keep in picked])
            if picked
            else np.empty(0, dtype="<i4")
        )
        # stable sort: within one ASN ties keep concat order, exactly
        # like the object engine's stable per-list (start, end) sort
        order = np.lexsort((end, start, asn))
        reg_date, cc, status, opaque = (
            col("reg_date"), col("cc"), col("status"), col("opaque")
        )
        return AssembledRegistry(
            asn=asn,
            start=start,
            end=end,
            reg_date=reg_date,
            cc=cc,
            status=status,
            opaque=opaque,
            s_asn=asn[order],
            s_start=start[order],
            s_end=end[order],
            s_reg_date=reg_date[order],
            s_cc=cc[order],
            s_status=status[order],
            s_opaque=opaque[order],
        )

    # -- decoding ------------------------------------------------------

    def _record(
        self,
        registry: str,
        asn: int,
        date_raw: int,
        cc_id: int,
        status_id: int,
        opq_id: int,
    ) -> DelegationRecord:
        key = (registry, asn, date_raw, cc_id, status_id, opq_id)
        rec = self._rec_cache.get(key)
        if rec is None:
            rec = DelegationRecord(
                registry=registry,
                cc=self._cc_pool[cc_id],
                asn=asn,
                reg_date=None if date_raw < 0 else date_raw,
                status=_STATUSES[status_id],
                opaque_id=None if opq_id < 0 else self._opaque_pool[opq_id],
            )
            self._rec_cache[key] = rec
        return rec

    def _decode_merged(
        self, registry: str, asm: AssembledRegistry
    ) -> Dict[ASN, List[Stint]]:
        """Authoritative stints dict, in the object engine's dict order.

        Keys appear in first-appearance-in-concat order (regular block
        first), matching ``build_registry_view``'s ``merged`` insertion
        order; each list comes off the sorted columns, i.e. already in
        final stable (start, end) order.
        """
        if not asm.n_rows:
            return {}
        _, first_idx = np.unique(asm.asn, return_index=True)
        key_order = asm.asn[np.sort(first_idx)].tolist()
        sa = asm.s_asn
        asn_l = sa.tolist()
        start_l = asm.s_start.tolist()
        end_l = asm.s_end.tolist()
        date_l = asm.s_reg_date.tolist()
        cc_l = asm.s_cc.tolist()
        st_l = asm.s_status.tolist()
        op_l = asm.s_opaque.tolist()
        record = self._record
        merged: Dict[ASN, List[Stint]] = {}
        for asn in key_order:
            lo = int(np.searchsorted(sa, asn, "left"))
            hi = int(np.searchsorted(sa, asn, "right"))
            merged[asn] = [
                Stint(
                    start_l[i],
                    end_l[i],
                    record(
                        registry, asn_l[i], date_l[i], cc_l[i], st_l[i], op_l[i]
                    ),
                )
                for i in range(lo, hi)
            ]
        return merged

    def _regular_groups(self, registry: str):
        """The raw regular block stably sorted by ASN: the sorted asn
        array plus per-field columns (as lists, for fast scalar reads)
        in the permuted order.  Within one ASN the stable sort keeps
        timeline order.  Cached per registry — candidate decoding hits
        this once per candidate ASN."""
        cached = self._regular_order.get(registry)
        if cached is None:
            rows = self.rows(registry)[: int(self._meta[registry]["n_regular"])]
            perm = np.argsort(rows["asn"], kind="stable")
            sorted_rows = rows[perm]
            cached = (
                sorted_rows["asn"],
                sorted_rows,
                {
                    field: sorted_rows[field].tolist()
                    for field in ("asn", "start", "end", "reg_date", "cc",
                                  "status", "opaque")
                },
            )
            self._regular_order[registry] = cached
        return cached

    def _decode_regular_asn(self, registry: str, asn: int) -> List[Stint]:
        sorted_asn, _, cols = self._regular_groups(registry)
        lo = int(np.searchsorted(sorted_asn, asn, "left"))
        hi = int(np.searchsorted(sorted_asn, asn, "right"))
        record = self._record
        return [
            Stint(
                cols["start"][j],
                cols["end"][j],
                record(
                    registry,
                    cols["asn"][j],
                    cols["reg_date"][j],
                    cols["cc"][j],
                    cols["status"][j],
                    cols["opaque"][j],
                ),
            )
            for j in range(lo, hi)
        ]

    def _decode_regular(self, registry: str) -> Dict[ASN, List[Stint]]:
        """Full regular-feed timeline dict, in timeline (row) order."""
        rows = self.rows(registry)[: int(self._meta[registry]["n_regular"])]
        asn_l = rows["asn"].tolist()
        start_l = rows["start"].tolist()
        end_l = rows["end"].tolist()
        date_l = rows["reg_date"].tolist()
        cc_l = rows["cc"].tolist()
        st_l = rows["status"].tolist()
        op_l = rows["opaque"].tolist()
        record = self._record
        out: Dict[ASN, List[Stint]] = {}
        for i in range(len(asn_l)):
            out.setdefault(asn_l[i], []).append(
                Stint(
                    start_l[i],
                    end_l[i],
                    record(
                        registry, asn_l[i], date_l[i], cc_l[i], st_l[i], op_l[i]
                    ),
                )
            )
        return out

    def _apply_metadata(self, view: RegistryView, registry: str) -> None:
        rw, ew, first, last, ext_start = self._bounds(registry)
        view.first_day = first
        view.last_day = last
        view.extended_start = ext_start
        if rw is not None:
            view.regular_first_day, view.regular_last_day = rw
            days = self.unavailable(registry, "regular")
            if ext_start is not None:
                days = days[days <= ext_start - 1]
            view.unavailable_days = set(days.tolist())
        if ew is not None:
            view.unavailable_days |= set(
                self.unavailable(registry, "extended").tolist()
            )

    def build_view(
        self, registry: str, *, include_regular: bool = True
    ) -> RegistryView:
        """Decode one registry's full :class:`RegistryView`.

        ``include_regular=False`` skips the recovery-state second
        timeline (the §3.1 steps run elsewhere on the table path, and
        ``prune_recovery_state`` clears it before any consumer reads
        the views).
        """
        view = RegistryView(registry=registry)
        self._apply_metadata(view, registry)
        if include_regular and self._window(registry, "regular") is not None:
            view.regular_stints = self._decode_regular(registry)
            view.regular_unavailable_days = set(
                self.unavailable(registry, "regular").tolist()
            )
        view.stints = self._decode_merged(registry, self.assemble(registry))
        return view

    # -- candidate detection -------------------------------------------

    def step_candidates(
        self, registry: str, asm: AssembledRegistry
    ) -> Dict[str, Set[int]]:
        """ASNs each §3.1 step *can* touch — provable supersets.

        Derived from the sorted columns, where adjacent same-ASN rows
        are exactly the object engine's adjacent list entries:

        * ``ii``: a 1..max-gap day gap inside the extended era ending
          by the regular feed's last day, left row delegated (prior
          merges only shrink gap intervals, so original gaps cover
          every gap the step will ever see);
        * ``i``: a gap fully covered by authoritative unavailable days
          (same gaps-shrink argument; coverage of a subinterval follows
          from coverage of the original);
        * ``iv``: overlapping adjacent rows (step merges preserve the
          overlap endpoints they collapse);
        * ``v``: a delegated row dated after its (clipped) start, or
          carrying the ERX placeholder date, or an adjacent
          delegated-pair date decrease (any backward repair implies an
          adjacent decrease in the delegated subsequence);
        * ``iii``: the delegated extended-era row sequence differs
          between the authoritative view and the raw regular feed
          (identical sequences give identical ``row_on`` answers, so
          zero divergent days).
        """
        rw, ew, _, last, ext_start = self._bounds(registry)
        sa, ss, se = asm.s_asn, asm.s_start, asm.s_end
        sd, sst = asm.s_reg_date, asm.s_status
        deleg = _DELEGATED_LUT[sst]
        out: Dict[str, Set[int]] = {
            "iii": set(), "ii": set(), "i": set(), "iv": set(), "v": set()
        }
        if not asm.n_rows:
            return out
        same = sa[1:] == sa[:-1]
        gap_start = se[:-1].astype(np.int64) + 1
        gap_end = ss[1:].astype(np.int64) - 1
        gap_len = gap_end - gap_start + 1

        if ext_start is not None and rw is not None:
            mask = (
                same
                & (gap_len >= 1)
                & (gap_len <= DEFAULT_MAX_GAP)
                & (gap_start >= ext_start)
                & (gap_end <= rw[1])
                & deleg[:-1]
            )
            out["ii"] = set(np.unique(sa[:-1][mask]).tolist())

        unavail = self._auth_unavailable(registry)
        if len(unavail):
            covered = (
                np.searchsorted(unavail, gap_end, "right")
                - np.searchsorted(unavail, gap_start, "left")
            )
            mask = same & (gap_len >= 1) & (covered == gap_len)
            out["i"] = set(np.unique(sa[:-1][mask]).tolist())

        mask = same & (ss[1:] <= se[:-1])
        out["iv"] = set(np.unique(sa[:-1][mask]).tolist())

        row_mask = deleg & (
            ((sd >= 0) & (sd > ss)) | (sd == ERX_PLACEHOLDER_DATE)
        )
        cand_v = set(np.unique(sa[row_mask]).tolist())
        da, dd = sa[deleg], sd[deleg]
        if len(da) > 1:
            dec = (da[1:] == da[:-1]) & (dd[1:] < dd[:-1])
            cand_v |= set(np.unique(da[:-1][dec]).tolist())
        out["v"] = cand_v

        if ext_start is not None and rw is not None:
            lo, hi = ext_start, min(last, rw[1])
            if lo <= hi:
                out["iii"] = self._sameday_candidates(
                    registry, asm, deleg, lo, hi
                )
        return out

    def _sameday_candidates(
        self,
        registry: str,
        asm: AssembledRegistry,
        deleg: np.ndarray,
        lo: int,
        hi: int,
    ) -> Set[int]:
        """ASNs whose delegated extended-era sequences differ between
        the authoritative view (side A) and the raw regular feed (B).

        The day probe only ever reads ``row_on`` inside ``[lo, hi]``,
        and coverage there is invariant under clamping every interval
        to that window — so both sides are clamped before comparing.
        Without the clamp, regular rows straddling the era boundary
        would mismatch their clipped authoritative twins on raw
        ``start``/``end`` despite identical day-level content, turning
        nearly the whole registry into candidates.
        """
        m_a = deleg & (asm.s_end >= lo) & (asm.s_start <= hi)
        a_asn = asm.s_asn[m_a].astype(np.int64)
        a_cols = (
            np.maximum(asm.s_start[m_a].astype(np.int64), lo),
            np.minimum(asm.s_end[m_a].astype(np.int64), hi),
            asm.s_reg_date[m_a],
            asm.s_cc[m_a], asm.s_status[m_a],
        )
        _, r_sorted, _ = self._regular_groups(registry)
        m_b = (
            _DELEGATED_LUT[r_sorted["status"]]
            & (r_sorted["end"] >= lo)
            & (r_sorted["start"] <= hi)
        )
        b_rows = r_sorted[m_b]
        b_asn = b_rows["asn"].astype(np.int64)
        b_cols = (
            np.maximum(b_rows["start"].astype(np.int64), lo),
            np.minimum(b_rows["end"].astype(np.int64), hi),
            b_rows["reg_date"],
            b_rows["cc"], b_rows["status"],
        )
        domain = np.union1d(a_asn, b_asn)
        if not len(domain):
            return set()
        count_a = np.zeros(len(domain), dtype=np.int64)
        count_b = np.zeros(len(domain), dtype=np.int64)
        ua, ca = np.unique(a_asn, return_counts=True)
        ub, cb = np.unique(b_asn, return_counts=True)
        count_a[np.searchsorted(domain, ua)] = ca
        count_b[np.searchsorted(domain, ub)] = cb
        cand = set(domain[count_a != count_b].tolist())
        eq_asns = domain[(count_a == count_b) & (count_a > 0)]
        if len(eq_asns):
            sel_a = np.isin(a_asn, eq_asns)
            sel_b = np.isin(b_asn, eq_asns)
            diff = np.zeros(int(sel_a.sum()), dtype=bool)
            for col_a, col_b in zip(a_cols, b_cols):
                diff |= col_a[sel_a] != col_b[sel_b]
            cand |= set(np.unique(a_asn[sel_a][diff]).tolist())
        # only ASNs the authoritative view holds are ever visited
        auth = set(np.unique(asm.s_asn).tolist())
        return cand & auth

    def build_candidate_view(
        self,
        registry: str,
        asm: AssembledRegistry,
        cands: Dict[str, Set[int]],
    ) -> RegistryView:
        """Sub-view holding only candidate ASNs, step-function-ready.

        Stint lists are shared across steps (the object functions
        mutate them in place).  Regular-feed lists are decoded for
        *every* included ASN: steps (ii) and (iii) read them for any
        ASN present in ``stints``, so an ASN pulled in as a candidate
        of another step must still see its true regular timeline —
        an empty one would read as total same-day divergence.
        """
        view = RegistryView(registry=registry)
        self._apply_metadata(view, registry)
        if self._window(registry, "regular") is not None:
            view.regular_unavailable_days = set(
                self.unavailable(registry, "regular").tolist()
            )
        union = sorted(set().union(*cands.values()))
        sa = asm.s_asn
        start_l = asm.s_start.tolist()
        end_l = asm.s_end.tolist()
        date_l = asm.s_reg_date.tolist()
        cc_l = asm.s_cc.tolist()
        st_l = asm.s_status.tolist()
        op_l = asm.s_opaque.tolist()
        record = self._record
        for asn in union:
            lo = int(np.searchsorted(sa, asn, "left"))
            hi = int(np.searchsorted(sa, asn, "right"))
            view.stints[asn] = [
                Stint(
                    start_l[i],
                    end_l[i],
                    record(registry, asn, date_l[i], cc_l[i], st_l[i], op_l[i]),
                )
                for i in range(lo, hi)
            ]
        for asn in union:
            stints = self._decode_regular_asn(registry, asn)
            if stints:
                view.regular_stints[asn] = stints
        return view


def obtain_table(
    archive: DelegationArchive,
    *,
    cache: Optional[ArtifactCache] = None,
    table_path: Optional[Union[str, Path]] = None,
    cache_key_parts: Optional[Mapping[str, Any]] = None,
) -> Tuple[DelegationTable, str, Tuple[str, Any]]:
    """Get the archive's packed table: mmap, cache, or encode.

    Priority: an existing ``table_path`` container is memory-mapped
    as-is; otherwise a verified raw cache entry is memory-mapped (the cache key needs ``cache_key_parts``,
    the archive-determining parts the caller already hashes for the
    bundle — the archive itself is too expensive to fingerprint here);
    otherwise the archive is encoded once and persisted to whichever
    destination exists.  Returns ``(table, source, handle)`` with
    ``source`` one of ``"mmap"``/``"cache"``/``"encoded"`` and
    ``handle`` the fan-out descriptor workers re-open the rows from:
    ``("path", str)`` when a backing file exists, else
    ``("bytes", container)``.
    """
    if table_path is not None:
        table_path = Path(table_path)
        if table_path.exists():
            table = DelegationTable.from_file(table_path)
            return table, "mmap", ("path", str(table_path))
    key: Optional[str] = None
    if cache is not None and cache_key_parts is not None:
        key = cache.key_for(
            artifact="delegation-table",
            table_version=DELEGATION_TABLE_VERSION,
            **dict(cache_key_parts),
        )
        cached = cache.load_raw_path(key)
        if cached is not None:
            table = DelegationTable.from_file(cached)
            if table_path is not None:
                table.to_file(table_path)
            return table, "cache", ("path", str(table.source))
    table = DelegationTable.from_archive(archive)
    blob = table.to_bytes()
    if table_path is not None:
        write_bytes_atomic(table_path, blob)
        table.source = table_path
    if cache is not None and key is not None:
        # best-effort seed for the *next* run; the store may be torn or
        # dropped by an injected fault, so this run never fans out
        # through the file the cache just wrote — only a verified
        # ``load_raw_path`` hit is trusted as a path handle
        cache.store_raw(key, blob)
    if table.source is not None:
        return table, "encoded", ("path", str(table.source))
    return table, "encoded", ("bytes", blob)


def _open_table_handle(handle: Tuple[str, Any]) -> DelegationTable:
    kind, payload = handle
    if kind == "path":
        # one mmap per (worker process, container file) — but a *fresh*
        # DelegationTable per task over that shared buffer.  Sharing the
        # decoded table would let its record/string intern pools alias
        # objects across registries, making pickled results depend on
        # whether the fan-out shipped a path or raw bytes (the bytes
        # branch below decodes per task by construction).  Decoded views
        # are never cached either way: the step functions mutate them.
        # The memo key carries the file's identity (inode/size/mtime):
        # a path recycled by a later run in the same long-lived worker
        # must re-map, never serve the previous file's buffer.
        st = os.stat(payload)
        key = (
            "delegation-table", payload,
            st.st_ino, st.st_size, st.st_mtime_ns,
        )

        def _map() -> Tuple[Any, memoryview]:
            with open(payload, "rb") as fh:
                mm = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
            return mm, memoryview(mm)

        mm, buf = per_process(key, _map)
        return DelegationTable._from_buffer(
            buf, source=Path(payload), mmap_obj=mm
        )
    return DelegationTable.from_bytes(payload)


def restore_registry_table_task(
    payload: Tuple[Tuple[str, Any], str, Optional[Mapping[ASN, Day]]],
) -> Tuple[str, Dict[ASN, List[Stint]], RestorationReport]:
    """Run the five per-registry §3.1 steps off the packed rows.

    The worker re-opens the container itself (nothing heavier than the
    descriptor crosses the pool), finds the candidate ASNs by array
    reduction, and runs the *object* step functions over a sub-view of
    just those ASNs — counters and mutations are therefore the object
    engine's own, and every ledger boundary carries full-view row
    totals reconstructed from the array row count plus the candidate
    lists' deltas (non-candidates are provably untouched).

    Returns ``(registry, mutated candidate lists, report)``; the driver
    patches the candidate entries into its decoded views.
    """
    handle, registry, erx_reference = payload
    table = _open_table_handle(handle)
    # Canonicalize the name to *this decode's* string object before it
    # flows into restored records: the serial backend hands the tuple
    # over by reference, and letting the driver's own string in would
    # make pickled output alias differently under serial vs pool.
    registry = next(n for n in table.registries() if n == registry)
    asm = table.assemble(registry)
    cands = table.step_candidates(registry, asm)
    view = table.build_candidate_view(registry, asm, cands)
    report = RestorationReport()
    views = {registry: view}
    total_rows = int(asm.n_rows)
    steps = (
        ("iii-same-day-divergence",
         lambda: measure_sameday_divergence(views, report), ()),
        ("ii-missing-records",
         lambda: recover_dropped_records(views, report),
         (("merged_into_recovered_row", "{r}_records_recovered"),)),
        ("i-missing-file-gaps",
         lambda: bridge_unavailable_gaps(views, report),
         (("merged_across_file_gap", "{r}_gaps_bridged"),)),
        ("iv-duplicate-records",
         lambda: resolve_duplicate_records(views, report),
         (("duplicate_overlap", "{r}_duplicate_rows_dropped"),)),
        ("v-registration-dates",
         lambda: restore_registration_dates(
             views, report, erx_reference=erx_reference), ()),
    )
    for step_name, run, drop_buckets in steps:
        held_before = sum(len(s) for s in view.stints.values())
        run()
        held_after = sum(len(s) for s in view.stints.values())
        rows_in = total_rows
        total_rows += held_after - held_before
        counts = report.step(step_name).counts
        dropped = {
            reason: counts.get(counter.format(r=registry), 0)
            for reason, counter in drop_buckets
        }
        record_boundary(
            f"restoration/{step_name}/{registry}",
            records_in=rows_in,
            kept=total_rows,
            dropped=dropped,
        )
    return registry, dict(view.stints), report
