"""Table-engine restoration: equivalence against the object oracle.

The ``delegation-table`` engine's contract (see DESIGN.md §9) is not
"close enough" — it is byte-identity: same stints, same dict ordering,
same report counters, same ledger rows as the object engine, under
every backend.  These tests pin that contract per §3.1 step with
targeted defect overlays, under hypothesis-drawn defect geometry, and
end to end on simulated worlds with the full pitfall injector.
"""

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn import IanaLedger
from repro.restoration import restore_archive
from repro.restoration.table import DelegationTable, obtain_table
from repro.restoration.view import build_registry_view
from repro.rir import (
    ERX_PLACEHOLDER_DATE,
    EXTENDED,
    REGULAR,
    ArchiveOverlay,
    DelegationArchive,
    DelegationRecord,
    Registry,
    Status,
    default_policy,
)
from repro.rir.pitfalls import PitfallConfig, PitfallInjector
from repro.runtime import (
    ArtifactCache,
    PipelineStats,
    build_ledger,
    check_ledger,
    reset_metrics,
)
from repro.simulation.config import tiny
from repro.simulation.world import WorldSimulator
from repro.timeline import Interval, from_iso

START = from_iso("2010-05-01")
END = from_iso("2012-05-01")


def fresh_world():
    ledger = IanaLedger()
    ripe = Registry("ripencc", default_policy("ripencc"), ledger)
    arin = Registry("arin", default_policy("arin"), ledger)
    asns = {}
    asns["stable"] = ripe.allocate(START, "ORG-1", "IT", thirty_two_bit=False).asn
    asns["dealloc"] = ripe.allocate(START, "ORG-2", "FR", thirty_two_bit=False).asn
    ripe.deallocate(START + 200, asns["dealloc"])
    asns["arin"] = arin.allocate(START, "ORG-3", "US", thirty_two_bit=False).asn
    return ledger, {"ripencc": ripe, "arin": arin}, asns


def assert_restores_equal(registries, overlay=None, **kw):
    """Both engines over one archive: outputs must match exactly."""
    archive = DelegationArchive(registries, END, overlay)
    obj_restored, obj_report = restore_archive(archive, engine="object", **kw)
    tbl_restored, tbl_report = restore_archive(archive, engine="table", **kw)
    assert tbl_restored.stints == obj_restored.stints
    assert list(tbl_restored.stints) == list(obj_restored.stints)
    for registry in obj_restored.views:
        assert (
            tbl_restored.views[registry].stints
            == obj_restored.views[registry].stints
        )
        assert list(tbl_restored.views[registry].stints) == list(
            obj_restored.views[registry].stints
        )
    assert tbl_report.summary() == obj_report.summary()
    return tbl_restored, tbl_report


def injected_archive(seed):
    """A simulated world's archive with the full §3 defect overlay."""
    world = WorldSimulator(tiny(seed=seed)).run()
    clean = DelegationArchive(world.registries, world.config.end_day)
    windows = {w.source: (w.first_day, w.last_day) for w in clean.sources()}
    injector = PitfallInjector(
        world.registries, world.config.end_day,
        seed=seed + 6, config=PitfallConfig(),
    )
    overlay = injector.inject_all(windows, world.transfers)
    archive = DelegationArchive(world.registries, world.config.end_day, overlay)
    return world, archive


class TestContainerRoundTrip:
    def test_bytes_round_trip_is_stable(self):
        _, registries, _ = fresh_world()
        archive = DelegationArchive(registries, END)
        table = DelegationTable.from_archive(archive)
        blob = table.to_bytes()
        assert DelegationTable.from_bytes(blob).to_bytes() == blob

    def test_file_mmap_matches_in_memory(self, tmp_path):
        _, registries, asns = fresh_world()
        archive = DelegationArchive(registries, END)
        table = DelegationTable.from_archive(archive)
        path = tmp_path / "delegs.dtab"
        table.to_file(path)
        mapped = DelegationTable.from_file(path)
        assert mapped.registries() == table.registries()
        for registry in table.registries():
            a = mapped.build_view(registry)
            b = table.build_view(registry)
            assert a.stints == b.stints
            assert list(a.stints) == list(b.stints)
            assert a.regular_stints == b.regular_stints
            assert a.unavailable_days == b.unavailable_days
        # the mapped view matches the object construction too
        view = mapped.build_view("ripencc")
        oracle = build_registry_view(archive, "ripencc")
        assert view.stints == oracle.stints
        assert list(view.stints) == list(oracle.stints)
        assert asns["stable"] in view.stints

    def test_failed_write_keeps_old_container_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        _, registries, _ = fresh_world()
        old = DelegationTable.from_archive(DelegationArchive(registries, END - 90))
        new = DelegationTable.from_archive(DelegationArchive(registries, END))
        path = tmp_path / "delegs.dtab"
        old.to_file(path)
        before = path.read_bytes()
        assert new.to_bytes() != before

        real_write = Path.write_bytes

        def torn_write(self, data):
            real_write(self, data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(OSError):
            new.to_file(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["delegs.dtab"]

    def test_rejects_foreign_bytes(self):
        with pytest.raises(ValueError):
            DelegationTable.from_bytes(b"not a container" * 4)


class TestViewAssembly:
    def test_era_transition_view(self):
        """ripencc spans the regular->extended transition; arin (whose
        extended feed starts after END) is regular-era only."""
        _, registries, _ = fresh_world()
        archive = DelegationArchive(registries, END)
        table = DelegationTable.from_archive(archive)
        for registry in ("ripencc", "arin"):
            view = table.build_view(registry)
            oracle = build_registry_view(archive, registry)
            assert view.stints == oracle.stints
            assert list(view.stints) == list(oracle.stints)
            assert view.regular_stints == oracle.regular_stints
            assert view.unavailable_days == oracle.unavailable_days
            assert view.regular_unavailable_days == oracle.regular_unavailable_days
            assert view.extended_start == oracle.extended_start
            assert view.first_day == oracle.first_day
            assert view.last_day == oracle.last_day


class TestStepEquivalence:
    def test_clean_archive(self):
        ledger, registries, _ = fresh_world()
        assert_restores_equal(registries, ledger=ledger)

    def test_unavailable_day_gaps(self):
        """Step (i): gap exactly covered by missing-file days."""
        ledger, registries, asns = fresh_world()
        overlay = ArchiveOverlay()
        for d in range(START + 50, START + 53):
            overlay.mark_missing(("ripencc", EXTENDED), d)
            overlay.mark_missing(("ripencc", REGULAR), d)
        overlay.drop_record(("ripencc", EXTENDED), asns["stable"],
                            Interval(START + 50, START + 52))
        _, report = assert_restores_equal(registries, overlay, ledger=ledger)
        assert report.summary()["i-missing-file-gaps"]["ripencc_gaps_bridged"] >= 1

    def test_extended_drop_recovery(self):
        """Step (ii): extended-era drop recoverable from the regular feed."""
        ledger, registries, asns = fresh_world()
        overlay = ArchiveOverlay()
        overlay.drop_record(("ripencc", EXTENDED), asns["stable"],
                            Interval(START + 100, START + 102))
        _, report = assert_restores_equal(registries, overlay, ledger=ledger)
        assert report.summary()["ii-missing-records"]["ripencc_records_recovered"] >= 1

    def test_sameday_divergence(self):
        """Step (iii): a stale regular day diverges from the extended feed."""
        ledger, registries, _ = fresh_world()
        overlay = ArchiveOverlay()
        overlay.mark_stale(("ripencc", REGULAR), START + 200)
        _, report = assert_restores_equal(registries, overlay, ledger=ledger)
        assert report.summary()["iii-same-day-divergence"].get(
            "ripencc_divergent_days", 0) >= 1

    def test_duplicate_records(self):
        """Step (iv): contradictory overlapping ghost row."""
        ledger, registries, asns = fresh_world()
        overlay = ArchiveOverlay()
        ghost = DelegationRecord("ripencc", "", asns["stable"], None, Status.RESERVED)
        overlay.add_record(("ripencc", EXTENDED),
                           Interval(START + 30, START + 120), ghost)
        _, report = assert_restores_equal(registries, overlay, ledger=ledger)
        assert report.summary()["iv-duplicate-records"][
            "ripencc_asns_deduplicated"] == 1

    def test_registration_dates(self):
        """Step (v): future dates and ERX placeholders, with reference."""
        ledger, registries, asns = fresh_world()
        overlay = ArchiveOverlay()
        for kind in (REGULAR, EXTENDED):
            overlay.override_date(("ripencc", kind), asns["stable"],
                                  Interval(START, START + 10), START + 5)
            overlay.override_date(("ripencc", kind), asns["dealloc"],
                                  Interval(START + 50, END), ERX_PLACEHOLDER_DATE)
        _, report = assert_restores_equal(
            registries, overlay, ledger=ledger,
            erx_reference={asns["dealloc"]: from_iso("1995-03-03")},
        )
        assert report.summary()["v-registration-dates"][
            "ripencc_future_dates_fixed"] >= 1

    def test_inter_rir_move(self):
        """Step (vi): a transfer with a stale source-registry tail."""
        ledger, registries, _ = fresh_world()
        ripe, arin = registries["ripencc"], registries["arin"]
        alloc = arin.allocate(START + 10, "ORG-T", "US", thirty_two_bit=False)
        transfer_day = START + 300
        out = arin.transfer_out(transfer_day, alloc.asn)
        ripe.transfer_in(transfer_day, out)
        overlay = ArchiveOverlay()
        stale = DelegationRecord(
            "arin", "US", alloc.asn, alloc.reg_date, Status.ALLOCATED
        )
        overlay.add_record(("arin", REGULAR),
                           Interval(transfer_day, transfer_day + 90), stale)
        _, report = assert_restores_equal(registries, overlay, ledger=ledger)
        assert report.summary()["vi-inter-rir"]["stale_transfer_tails_trimmed"] >= 1


@settings(max_examples=8, deadline=None)
@given(offset=st.integers(min_value=20, max_value=600),
       length=st.integers(min_value=1, max_value=45))
def test_drop_geometry_equivalence(offset, length):
    """Any drop geometry — straddling the max-gap boundary, the era
    transition, the window edges — restores identically on both engines."""
    ledger, registries, asns = fresh_world()
    overlay = ArchiveOverlay()
    overlay.drop_record(("ripencc", EXTENDED), asns["stable"],
                        Interval(START + offset, START + offset + length - 1))
    assert_restores_equal(registries, overlay, ledger=ledger)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_world_equivalence(seed):
    """Full pitfall-injected worlds restore identically on both engines."""
    world, archive = injected_archive(seed)
    obj = restore_archive(
        archive, erx_reference=world.erx_reference, ledger=world.ledger,
        engine="object",
    )
    tbl = restore_archive(
        archive, erx_reference=world.erx_reference, ledger=world.ledger,
        engine="table",
    )
    assert tbl[0].stints == obj[0].stints
    assert list(tbl[0].stints) == list(obj[0].stints)
    assert tbl[1].summary() == obj[1].summary()


def test_table_serial_process_byte_identical():
    """The table path's descriptor fan-out is byte-deterministic: the
    pool run pickles to exactly the serial run's bytes."""
    world, archive = injected_archive(2021)
    kw = dict(erx_reference=world.erx_reference, ledger=world.ledger,
              engine="table")
    serial, serial_report = restore_archive(archive, **kw)
    with_pool, pool_report = restore_archive(archive, executor=2, **kw)
    assert pickle.dumps(with_pool.stints) == pickle.dumps(serial.stints)
    assert pool_report.summary() == serial_report.summary()


def test_table_cache_round_trip(tmp_path):
    """A cache-seeded container re-opens (mmap) to identical output,
    and the explicit table file serves a third, fresh engine run."""
    world, archive = injected_archive(7)
    key_parts = {"probe": "table-cache-round-trip"}
    cache = ArtifactCache(tmp_path / "cache", faults=None)
    path = tmp_path / "delegs.dtab"
    kw = dict(erx_reference=world.erx_reference, ledger=world.ledger,
              engine="table", cache=cache, cache_key_parts=key_parts)
    cold, _ = restore_archive(archive, table_path=path, **kw)
    assert path.exists()
    warm_stats = PipelineStats()
    warm, _ = restore_archive(archive, table_path=path, stats=warm_stats, **kw)
    spans = {s.name: s for s in warm_stats.tracer.spans}
    assert spans["restore:table"].attrs["source"] == "mmap"
    assert warm.stints == cold.stints
    assert list(warm.stints) == list(cold.stints)
    cached_stats = PipelineStats()
    cached, _ = restore_archive(archive, stats=cached_stats, **kw)
    spans = {s.name: s for s in cached_stats.tracer.spans}
    assert spans["restore:table"].attrs["source"] == "cache"
    assert cached.stints == cold.stints


def test_table_obtain_sources(tmp_path):
    """obtain_table priority: existing file, verified cache entry, encode."""
    _, registries, _ = fresh_world()
    archive = DelegationArchive(registries, END)
    cache = ArtifactCache(tmp_path / "cache", faults=None)
    parts = {"probe": "obtain"}
    _, source, handle = obtain_table(
        archive, cache=cache, cache_key_parts=parts)
    assert source == "encoded"
    _, source, handle = obtain_table(
        archive, cache=cache, cache_key_parts=parts)
    assert source == "cache" and handle[0] == "path"
    path = tmp_path / "explicit.dtab"
    table = DelegationTable.from_archive(archive)
    table.to_file(path)
    _, source, handle = obtain_table(archive, table_path=path)
    assert source == "mmap" and handle == ("path", str(path))


def test_table_ledger_closure():
    """Every restoration boundary on the table path conserves rows."""
    world, archive = injected_archive(11)
    registry = reset_metrics()
    restore_archive(
        archive, erx_reference=world.erx_reference, ledger=world.ledger,
        engine="table",
    )
    doc = build_ledger(registry)
    assert check_ledger(doc) == []
    stages = {row["stage"] for row in doc["stages"]}
    assert any(s.startswith("restoration/") for s in stages)
    # all five per-registry steps and the join barrier report boundaries
    for step in ("iii-same-day-divergence", "ii-missing-records",
                 "i-missing-file-gaps", "iv-duplicate-records",
                 "v-registration-dates", "vi-inter-rir"):
        assert any(f"/{step}/" in s for s in stages), step
