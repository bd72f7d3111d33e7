"""Snapshot format v2: three sections, v1 compatibility, live lifecycle.

The contract under test (ISSUE 5): the v2 file persists star-free tables
and validator memos next to the dense rows; v1 files keep loading
(counted ``format_v1``); corrupt or stale v2 *sections* degrade
per-section to lazy rebuild — never a changed verdict; and the serving
layer streams the current file over ``GET /snapshot`` so a fresh host
bootstraps from a running fleet.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro import cache
from repro.matching import snapshot as snapshot_format
from repro.matching.snapshot import SnapshotError
from repro.matching.star_free import StarFreeMultiMatcher
from repro.service import ServiceHTTPServer, SnapshotRefresher, ValidationService
from repro.xml import parse_dtd
from repro.xml.memo import AcceptanceMemo
from repro.xml.parser import parse_document
from repro.xml.validator import DTDValidator

ROWS_EXPR = "(ab+b(b?)a)*"
ROWS_WORDS = ["abba", "ab", "bb", "abab", "ba", "", "abbaab"]

STAR_FREE_EXPR = "(a+b)(c?)d"
STAR_FREE_WORDS = ["acd", "bd", "dd", "", "ad", "bcd"]

DTD_TEXT = "<!ELEMENT a (b, c?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>"
DOCUMENTS = ["<a><b/></a>", "<a><b/><c/></a>", "<a><c/></a>", "<a><c/><b/></a>"]


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.purge()
    yield
    repro.purge()


def _warm_everything() -> None:
    """Materialize state in all three sections: rows, tables, memos."""
    pattern = repro.compile(ROWS_EXPR)
    for word in ROWS_WORDS:
        pattern.match(word)
    star_free = repro.compile(STAR_FREE_EXPR)
    star_free.match_all(STAR_FREE_WORDS)
    validator = DTDValidator(parse_dtd(DTD_TEXT))
    for text in DOCUMENTS:
        validator.is_valid(parse_document(text))


def _oracle() -> dict:
    rows = repro.Pattern(ROWS_EXPR, compiled=False)
    star_free = repro.Pattern(STAR_FREE_EXPR, compiled=False)
    validator = DTDValidator(parse_dtd(DTD_TEXT), compiled=False)
    return {
        "rows": [rows.match(word) for word in ROWS_WORDS],
        "star_free": [star_free.match(word) for word in STAR_FREE_WORDS],
        "documents": [validator.is_valid(parse_document(text)) for text in DOCUMENTS],
    }


def _verdicts_now() -> dict:
    pattern = repro.compile(ROWS_EXPR)
    star_free = repro.compile(STAR_FREE_EXPR)
    validator = DTDValidator(parse_dtd(DTD_TEXT))
    return {
        "rows": [pattern.match(word) for word in ROWS_WORDS],
        "star_free": star_free.match_all(STAR_FREE_WORDS),
        "documents": [validator.is_valid(parse_document(text)) for text in DOCUMENTS],
    }


class TestV2RoundTrip:
    def test_all_three_sections_round_trip(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        saved = repro.save_snapshot(str(path))
        assert saved["patterns"] >= 2, saved
        assert saved["star_free_patterns"] == 1, saved
        assert saved["decisions"] > 0, saved
        assert saved["memo_patterns"] >= 1, saved
        assert saved["memo_entries"] >= len({("b",), ("b", "c"), ("c",), ("c", "b")}), saved
        assert saved["sections"] == ["ROWS", "SFTB", "MEMO"]

        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["format"] == 2
        assert report["rejected"] == 0, report
        assert report["patterns_loaded"] >= 2
        assert report["tables_loaded"] == 1
        assert report["table_entries_loaded"] > 0
        assert report["memos_loaded"] >= 1
        assert report["memo_entries_loaded"] >= 4
        assert _verdicts_now() == _oracle()

        # The adopted star-free tables really landed on the matcher.
        multi = repro.compile(STAR_FREE_EXPR).plan.built_star_free()
        assert multi is not None
        stats = multi.table_stats()
        assert stats["adopted_decisions"] > 0 or stats["adopted_accepts"] > 0

    def test_save_load_counts_into_telemetry(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        before = repro.stats()["snapshot"]
        repro.save_snapshot(str(path))
        repro.purge()
        repro.load_snapshot(str(path))
        stats = repro.stats()["snapshot"]
        assert stats["format_v2"] == before["format_v2"] + 1
        assert stats["tables_saved"] == before["tables_saved"] + 1
        assert stats["tables_loaded"] == before["tables_loaded"] + 1
        assert stats["memo_entries_saved"] > before["memo_entries_saved"]
        assert stats["memo_entries_loaded"] > before["memo_entries_loaded"]

    def test_describe_file_lists_sections(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        saved = repro.save_snapshot(str(path))
        description = snapshot_format.describe_file(path)
        assert description["format"] == 2
        assert description["bytes"] == saved["bytes"]
        assert [s["tag"] for s in description["sections"]] == ["ROWS", "SFTB", "MEMO"]
        total = sum(s["length"] for s in description["sections"])
        assert description["sections"][0]["offset"] + total == saved["bytes"]

    def test_memo_only_pattern_is_persisted(self, tmp_path):
        """A pattern warm only in its memo still earns a snapshot entry."""
        validator = DTDValidator(parse_dtd(DTD_TEXT))
        validator.is_valid(parse_document("<a><b/></a>"))
        saved = repro.save_snapshot(str(tmp_path / "memo.snapshot"))
        assert saved["memo_patterns"] >= 1

    def test_materialized_gauge_tracks_all_sections(self):
        base = repro.stats()["snapshot"]["materialized"]
        assert base["total"] == 0
        _warm_everything()
        gauge = repro.stats()["snapshot"]["materialized"]
        assert gauge["transitions"] > 0
        assert gauge["star_free_entries"] > 0
        assert gauge["memo_entries"] > 0
        assert gauge["total"] == (
            gauge["transitions"] + gauge["star_free_entries"] + gauge["memo_entries"]
        )


class TestV1Compatibility:
    def test_v1_file_still_loads_and_is_counted(self, tmp_path):
        path = tmp_path / "rows.v1.snapshot"
        pattern = repro.compile(ROWS_EXPR)
        for word in ROWS_WORDS:
            pattern.match(word)
        key = (ROWS_EXPR, "paper", "auto", True)
        meta = cache.snapshot_meta(key, pattern)
        export = pattern.runtime.export_rows()
        written = snapshot_format.write_v1(
            path,
            [
                {
                    "fingerprint": snapshot_format.pattern_fingerprint(meta),
                    "meta": meta,
                    "accepts": export["accepts"],
                    "rows": export["rows"],
                }
            ],
        )
        assert written["patterns"] == 1
        assert snapshot_format.describe_file(path)["format"] == 1

        repro.purge()
        before = repro.stats()["snapshot"]["format_v1"]
        report = repro.load_snapshot(str(path))
        assert report["format"] == 1
        assert report["patterns_loaded"] == 1
        assert report["rows_loaded"] == written["rows"]
        assert report["tables_loaded"] == 0 and report["memos_loaded"] == 0
        assert repro.stats()["snapshot"]["format_v1"] == before + 1
        restored = repro.compile(ROWS_EXPR)
        oracle = repro.Pattern(ROWS_EXPR, compiled=False)
        assert [restored.match(w) for w in ROWS_WORDS] == [oracle.match(w) for w in ROWS_WORDS]
        assert restored.runtime.stats()["misses"] == 0


class TestSectionDegradation:
    def _flip_in_section(self, path, tag: str) -> None:
        description = snapshot_format.describe_file(path)
        section = next(s for s in description["sections"] if s["tag"] == tag)
        blob = bytearray(path.read_bytes())
        blob[section["offset"] + section["length"] // 2] ^= 0x20
        path.write_bytes(bytes(blob))

    @pytest.mark.parametrize("corrupt", ["ROWS", "SFTB", "MEMO"])
    def test_one_bad_section_leaves_the_others_adopting(self, tmp_path, corrupt):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        oracle = _oracle()
        repro.save_snapshot(str(path))
        self._flip_in_section(path, corrupt)
        repro.purge()
        before = repro.stats()["snapshot"]["snapshot_rejected"]
        report = repro.load_snapshot(str(path))
        assert report["rejected"] >= 1, report
        assert repro.stats()["snapshot"]["snapshot_rejected"] > before
        assert repro.stats()["snapshot"]["rejected_reasons"].get("checksum", 0) >= 1
        if corrupt != "ROWS":
            assert report["patterns_loaded"] >= 2
        if corrupt != "SFTB":
            assert report["tables_loaded"] == 1
        if corrupt != "MEMO":
            assert report["memos_loaded"] >= 1
        assert _verdicts_now() == oracle, f"verdict changed with a corrupt {corrupt} section"

    def test_structurally_bad_rows_section_adopts_nothing_from_it(self, tmp_path):
        """A ROWS section with a valid CRC but malformed structure must
        reject as a unit — no half-adopted prefix of its entries."""
        import struct
        import zlib

        from repro.matching.snapshot import _HEADER_V2, _SECTION

        path = tmp_path / "state.snapshot"
        _warm_everything()
        repro.save_snapshot(str(path))
        blob = bytearray(path.read_bytes())
        description = snapshot_format.describe_file(path)
        rows = next(s for s in description["sections"] if s["tag"] == "ROWS")
        # The last 8 bytes of the ROWS payload are the final entry's last
        # (state, pool_index) pair; point the pool index outside the pool.
        struct.pack_into("<I", blob, rows["offset"] + rows["length"] - 4, 0xFFFFFF)
        # Recompute the section CRC and the directory CRC so only the
        # *structure* is bad.
        payload = bytes(blob[rows["offset"] : rows["offset"] + rows["length"]])
        directory_start = _HEADER_V2.size
        for index in range(len(description["sections"])):
            entry_offset = directory_start + index * _SECTION.size
            tag = bytes(blob[entry_offset : entry_offset + 4])
            if tag == b"ROWS":
                struct.pack_into("<I", blob, entry_offset + 4, zlib.crc32(payload) & 0xFFFFFFFF)
        directory = bytes(
            blob[directory_start : directory_start + len(description["sections"]) * _SECTION.size]
        )
        struct.pack_into("<I", blob, 16, zlib.crc32(directory) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))

        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 1, report
        assert report["patterns_loaded"] == 0, "a rejected ROWS section partially adopted"
        assert report["rows_loaded"] == 0, report
        assert report["tables_loaded"] == 1 and report["memos_loaded"] >= 1, report
        assert _verdicts_now() == _oracle()

    def test_fully_rejected_file_is_not_counted_as_a_load(self, tmp_path):
        """Corrupting every section must not increment loads/format_v2."""
        path = tmp_path / "state.snapshot"
        _warm_everything()
        repro.save_snapshot(str(path))
        for tag in ("ROWS", "SFTB", "MEMO"):
            self._flip_in_section(path, tag)
        repro.purge()
        before = repro.stats()["snapshot"]
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 3, report
        stats = repro.stats()["snapshot"]
        assert stats["loads"] == before["loads"], "an all-rejected file was counted as a load"
        assert stats["format_v2"] == before["format_v2"]
        assert _verdicts_now() == _oracle()

    def test_header_corruption_rejects_the_whole_file(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _warm_everything()
        repro.save_snapshot(str(path))
        blob = bytearray(path.read_bytes())
        blob[16] ^= 0x01  # the directory CRC
        path.write_bytes(bytes(blob))
        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 1
        assert report["patterns_loaded"] == 0
        assert report["tables_loaded"] == 0
        assert report["memos_loaded"] == 0
        assert _verdicts_now() == _oracle()

    def test_stale_star_free_fingerprint_is_counted(self, tmp_path):
        pattern = repro.compile(STAR_FREE_EXPR)
        pattern.match_all(STAR_FREE_WORDS)
        key = (STAR_FREE_EXPR, "paper", "auto", True)
        meta = cache.snapshot_meta(key, pattern)
        stale = dict(meta)
        stale["alphabet"] = meta["alphabet"] + ["zzz"]
        tables = pattern.plan.built_star_free().export_tables()
        path = tmp_path / "stale.snapshot"
        snapshot_format.write(
            path,
            [],
            star_free=[
                {
                    "fingerprint": snapshot_format.pattern_fingerprint(stale),
                    "meta": stale,
                    "accepts": tables["accepts"],
                    "decisions": tables["decisions"],
                }
            ],
        )
        repro.purge()
        report = repro.load_snapshot(str(path))
        assert report["rejected"] == 1
        assert report["tables_loaded"] == 0
        assert repro.stats()["snapshot"]["rejected_reasons"].get("fingerprint", 0) >= 1
        oracle = repro.Pattern(STAR_FREE_EXPR, compiled=False)
        fresh = repro.compile(STAR_FREE_EXPR)
        assert fresh.match_all(STAR_FREE_WORDS) == [
            oracle.match(w) for w in STAR_FREE_WORDS
        ]


class TestAdoptTables:
    """Star-free table adoption: reject before any mutation."""

    def _matcher(self) -> StarFreeMultiMatcher:
        return StarFreeMultiMatcher(STAR_FREE_EXPR, verify=False)

    def test_roundtrip_reproduces_verdicts(self):
        warm = self._matcher()
        expected = warm.match_all([list(w) for w in STAR_FREE_WORDS])
        tables = warm.export_tables()
        assert tables["decisions"] or tables["accepts"]
        fresh = self._matcher()
        adopted = fresh.adopt_tables(tables["accepts"], tables["decisions"])
        assert adopted == len(tables["accepts"]) + len(tables["decisions"])
        assert fresh.match_all([list(w) for w in STAR_FREE_WORDS]) == expected
        # Fixpoint: re-export reproduces the same tables.
        assert fresh.export_tables()["decisions"] == tables["decisions"]

    def test_rejects_out_of_range_pre_numbers(self):
        matcher = self._matcher()
        with pytest.raises(SnapshotError) as excinfo:
            matcher.adopt_tables({}, {(99999, 0): 1})
        assert excinfo.value.reason == "table-bounds"
        assert matcher.table_stats()["decisions"] == 0

    def test_rejects_invalid_decision_code(self):
        matcher = self._matcher()
        with pytest.raises(SnapshotError) as excinfo:
            matcher.adopt_tables({}, {(0, 1): 7})
        assert excinfo.value.reason == "malformed"

    def test_rejects_invalid_accept_verdict(self):
        matcher = self._matcher()
        with pytest.raises(SnapshotError) as excinfo:
            matcher.adopt_tables({0: 2}, {})
        assert excinfo.value.reason == "malformed"

    def test_partial_failure_mutates_nothing(self):
        warm = self._matcher()
        warm.match_all([list(w) for w in STAR_FREE_WORDS])
        tables = warm.export_tables()
        bad_decisions = dict(tables["decisions"])
        bad_decisions[(0, 99999)] = 1  # one bad key among good ones
        fresh = self._matcher()
        with pytest.raises(SnapshotError):
            fresh.adopt_tables(tables["accepts"], bad_decisions)
        stats = fresh.table_stats()
        assert stats["decisions"] == 0 and stats["accepts"] == 0

    def test_local_results_win(self):
        warm = self._matcher()
        warm.match_all([list(w) for w in STAR_FREE_WORDS])
        tables = warm.export_tables()
        other = self._matcher()
        other.match_all([list(w) for w in STAR_FREE_WORDS])
        adopted = other.adopt_tables(tables["accepts"], tables["decisions"])
        assert adopted == 0, "locally computed entries must win"


class TestAcceptanceMemo:
    def test_memo_short_circuits_repeat_validation(self):
        validator = DTDValidator(parse_dtd(DTD_TEXT))
        document = parse_document("<a><b/><c/></a>")
        assert validator.is_valid(document)
        memo = validator._plans["a"].built_memo()
        assert memo is not None and len(memo) == 1
        hits_before = memo.hits
        assert validator.is_valid(document)
        assert memo.hits > hits_before

    def test_memo_is_shared_across_validators_of_one_model(self):
        first = DTDValidator(parse_dtd(DTD_TEXT))
        second = DTDValidator(parse_dtd(DTD_TEXT))
        assert first._plans["a"].built_memo() is second._plans["a"].built_memo()

    def test_adopt_validates_before_mutating(self):
        memo = AcceptanceMemo()
        with pytest.raises(SnapshotError) as excinfo:
            memo.adopt([(["b"], True), (["c"], "yes")])
        assert excinfo.value.reason == "memo-entry"
        assert len(memo) == 0

    def test_adopt_rejects_non_sequence_keys(self):
        memo = AcceptanceMemo()
        for bad in [("bc", True)], [(7, True)], [([1, 2], True)], ["x"]:
            with pytest.raises(SnapshotError):
                memo.adopt(bad)
        assert len(memo) == 0

    def test_adopt_respects_the_bound_and_local_wins(self):
        memo = AcceptanceMemo(limit=2)
        memo.put(("b",), True)
        adopted = memo.adopt([(["b"], False), (["c"], True), (["d"], False)])
        assert adopted == 1  # ("c",) fits; ("b",) loses to local; ("d",) over bound
        assert memo.get(("b",)) is True, "local verdict must win"
        assert memo.get(("c",)) is True

    def test_put_stops_at_the_bound(self):
        memo = AcceptanceMemo(limit=1)
        memo.put(("a",), True)
        memo.put(("b",), False)
        assert len(memo) == 1
        assert memo.get(("b",)) is None


class TestLiveLifecycle:
    def test_refresher_persists_on_growth_and_idles_otherwise(self, tmp_path):
        path = tmp_path / "live.snapshot"
        refresher = SnapshotRefresher(str(path), interval=3600, min_growth=1)
        assert refresher.maybe_save() is None, "nothing materialized yet"
        assert not path.exists()
        _warm_everything()
        report = refresher.maybe_save()
        assert report is not None and path.exists()
        assert refresher.saves == 1
        # No further growth: the next tick must not rewrite.
        assert refresher.maybe_save() is None
        assert refresher.saves == 1
        # New growth: the file is rewritten atomically.
        extra = repro.compile("(xy)*z")
        extra.match("xyz")
        assert refresher.maybe_save() is not None
        assert refresher.saves == 2
        assert snapshot_format.describe_file(path)["format"] == 2

    def test_refresher_thread_runs_and_stops(self, tmp_path):
        path = tmp_path / "live.snapshot"
        _warm_everything()
        refresher = SnapshotRefresher(str(path), interval=0.05, min_growth=1)
        refresher.start()
        try:
            for _ in range(100):
                if path.exists():
                    break
                threading.Event().wait(0.05)
            assert path.exists(), "the background thread never persisted"
        finally:
            refresher.stop()
        assert refresher._thread is None


@pytest.fixture()
def snapshot_server(tmp_path):
    """A real HTTP server whose ``GET /snapshot`` serves a warm v2 file."""
    _warm_everything()
    path = tmp_path / "served.snapshot"
    repro.save_snapshot(str(path))
    service = ValidationService(workers=1)
    server = ServiceHTTPServer(("127.0.0.1", 0), service, snapshot_source=str(path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, path
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


class TestSnapshotEndpoint:
    def test_get_snapshot_streams_the_exact_file(self, snapshot_server):
        server, path = snapshot_server
        port = server.server_address[1]
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/snapshot") as response:
            assert response.headers["Content-Type"] == "application/octet-stream"
            blob = response.read()
        assert blob == path.read_bytes()

    def test_get_snapshot_404_without_a_source(self):
        service = ValidationService(workers=1)
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://127.0.0.1:{port}/snapshot")
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)

    def test_fleet_bootstrap_over_the_wire(self, snapshot_server):
        """load_snapshot(url): a fresh host adopts a running fleet's state."""
        server, _path = snapshot_server
        port = server.server_address[1]
        repro.purge()
        report = repro.load_snapshot(f"http://127.0.0.1:{port}/snapshot")
        assert report["url"].endswith("/snapshot")
        assert report["rejected"] == 0, report
        assert report["patterns_loaded"] >= 2
        assert report["tables_loaded"] == 1
        assert report["memos_loaded"] >= 1
        assert _verdicts_now() == _oracle()

    def test_fetch_failure_degrades_to_cold_start(self):
        before = repro.stats()["snapshot"]["snapshot_rejected"]
        report = repro.load_snapshot("http://127.0.0.1:9/snapshot")  # closed port
        assert report["rejected"] == 1
        assert report["patterns_loaded"] == 0
        stats = repro.stats()["snapshot"]
        assert stats["snapshot_rejected"] == before + 1
        assert stats["rejected_reasons"].get("fetch", 0) >= 1
        assert repro.compile(ROWS_EXPR).match("abba")

    def test_failed_fetches_do_not_leak_file_descriptors(self):
        """A bootstrap retry loop against a dead fleet must not bleed fds."""
        import gc
        import os

        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux
            pytest.skip("needs /proc to count descriptors")
        repro.load_snapshot("http://127.0.0.1:9/snapshot")  # warm any lazy imports
        # Collect first: an earlier test's adopted snapshot mmap, held by
        # unreachable patterns, would otherwise close its fd whenever the
        # collector happens to run inside the measured loop.
        gc.collect()
        before = len(os.listdir(fd_dir))
        for _ in range(5):
            repro.load_snapshot("http://127.0.0.1:9/snapshot")
        assert len(os.listdir(fd_dir)) == before
