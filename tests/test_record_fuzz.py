"""Generated-input oracle: the on-disk record readers under random damage.

Each test builds a valid file with the real writer, applies one mutation
drawn by hypothesis (flip one bit, set one byte to 0x80-0xFF, or truncate
at any offset) and reopens it.  The readers must never raise (the
best-known store may only warn), must only ever return records the writer
wrote, and must keep what they reject: checkpoint and journal lines reach
the ``.quarantine`` sidecar byte for byte, a cache entry moves to
``quarantine/`` whole.
"""

import functools
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bestknown.store import BestKnownEntry, BestKnownStore
from repro.resilience.checkpoint import CheckpointStore
from repro.service.cache import CacheKey, ResultCache
from repro.service.journal import JobJournal

FUZZ = settings(max_examples=40, deadline=None)

PAYLOADS = {
    "biskup_n10_k1_h0.4|SA_60": {"objective": 1100.0, "ratio": 8.4e-05},
    "biskup_n10_k2_h0.4|SA_60": {"name": "béta", "seq": [3, 1, 2]},
    "ucddcp_n20|threads64": [1, 2.5, None, True, "x"],
}

DOCUMENT = {
    "instance": "biskup_n10_k1_h0.4", "method": "parallel_sa", "key": "k1",
    "result": {"objective": 1100.0, "best_sequence": [2, 0, 1],
               "history": [1500.0, 1.25e-07, 1100.0]},
}

CACHE_KEY = CacheKey(
    instance="a" * 64, method="parallel_sa", config="b" * 64, seed=7,
    device_profile="gt560m",
)


@st.composite
def mutations(draw, clean: bytes) -> bytes:
    """``clean`` with one bit flipped, one byte set high, or truncated."""
    data = bytearray(clean)
    offset = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["flip", "high", "truncate"]))
    if kind == "truncate":
        return bytes(data[:offset])
    if kind == "flip":
        data[offset] ^= 1 << draw(st.integers(0, 7))
    else:
        data[offset] = draw(st.integers(0x80, 0xFF))
    return bytes(data)


def _written(clean: bytes) -> list[dict]:
    return [json.loads(line) for line in clean.splitlines()]


def _denotes_written(line: bytes, written: list[dict]) -> bool:
    """Whether ``line`` is (a spelling of) a record the writer wrote."""
    try:
        return json.loads(line.decode("utf-8")) in written
    except ValueError:
        return False


def _expected_sidecar(damaged: bytes, written: list[dict]) -> bytes:
    """Every non-blank line the reader must reject, verbatim."""
    return b"".join(
        line + b"\n"
        for line in damaged.split(b"\n")
        if line.strip() and not _denotes_written(line, written)
    )


def _sidecar(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


@functools.cache
def _clean_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.jsonl"
        store = CheckpointStore(path, fresh=True)
        for attempts, (key, payload) in enumerate(PAYLOADS.items(), 1):
            store.append(key, payload, attempts=attempts)
        return path.read_bytes()


@functools.cache
def _clean_journal() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        journal = JobJournal(Path(tmp) / "journal.jsonl")
        for seq, job_id in enumerate(("j000001", "j000002"), 1):
            journal.record_submitted(
                job_id, seq=seq, request={"method": "parallel_sa"},
                key=f"key-{seq}", method="parallel_sa",
                instance_name="biskup", idempotency_key=f"idem-{seq}",
            )
            journal.record_running(job_id)
            journal.record_done(
                job_id, document=DOCUMENT, cached=False, duration_s=0.5,
            )
        return journal.path.read_bytes()


@functools.cache
def _clean_cache() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cache.store(CACHE_KEY, DOCUMENT)
        return cache.path_for(CACHE_KEY).read_bytes()


@functools.cache
def _clean_bestknown() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        store = BestKnownStore(Path(tmp) / "bestknown.json")
        store.update("biskup_n10_k1_h0.4", BestKnownEntry(1100.0, "exact",
                                                          optimal=True))
        store.update("biskup_n20_k1_h0.4", BestKnownEntry(
            4089.5, "parallel_sa", meta={"restarts": 4}))
        store.save()
        return store.path.read_bytes()


@FUZZ
@given(data=st.data())
def test_checkpoint_reader(data):
    clean = _clean_checkpoint()
    damaged = data.draw(mutations(clean))
    written = _written(clean)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.jsonl"
        path.write_bytes(damaged)
        store = CheckpointStore(path)
        for key in store.keys():
            assert store.get(key) in written
        assert _sidecar(store.quarantine_path) == _expected_sidecar(
            damaged, written
        )


@FUZZ
@given(data=st.data())
def test_journal_reader(data):
    clean = _clean_journal()
    damaged = data.draw(mutations(clean))
    written = _written(clean)
    with tempfile.TemporaryDirectory() as tmp:
        journal = JobJournal(Path(tmp) / "journal.jsonl")
        journal.path.write_bytes(damaged)
        recovery = journal.replay()
        submitted = {r["job_id"]: r for r in written
                     if r["event"] == "submitted"}
        for job in recovery.terminal + recovery.pending:
            assert job.request == submitted[job.job_id]["request"]
            assert job.key == submitted[job.job_id]["key"]
        for job in recovery.terminal:
            view = journal.lookup(job.job_id)
            assert view is not None and view["document"] == DOCUMENT
        assert _sidecar(journal.quarantine_path) == _expected_sidecar(
            damaged, written
        )


@FUZZ
@given(data=st.data())
def test_cache_reader(data):
    clean = _clean_cache()
    damaged = data.draw(mutations(clean))
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        path = cache.path_for(CACHE_KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(damaged)
        payload = cache.load(CACHE_KEY)
        if payload is not None:
            assert payload == DOCUMENT
            assert path.read_bytes() == damaged
        else:
            assert not path.exists()
            moved = Path(tmp) / "quarantine" / path.name
            assert moved.read_bytes() == damaged
            assert cache.stats()["quarantined"] == 1


@FUZZ
@given(data=st.data())
def test_bestknown_reader(data):
    damaged = data.draw(mutations(_clean_bestknown()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bestknown.json"
        path.write_bytes(damaged)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = BestKnownStore(path)
        for name in ("biskup_n10_k1_h0.4", "biskup_n20_k1_h0.4", "new"):
            # A loaded entry must be usable, not just loadable.
            store.update(name, BestKnownEntry(1.0, "parallel_sa"))
        store.save()
