"""Content-addressed result cache: keys, storage, and quarantine."""

import json

import pytest

from repro.instances import biskup_instance, instance_digest, mapping_digest
from repro.instances.ucddcp_gen import ucddcp_instance
from repro.problems.cdd import CDDInstance
from repro.resilience.atomic import record_crc
from repro.service.admission import AdmissionPolicy, validate_request
from repro.service.cache import CACHE_SCHEMA, CacheKey, ResultCache

POLICY = AdmissionPolicy()


def key_for(body: dict) -> CacheKey:
    return CacheKey.for_job(validate_request(body, POLICY))


@pytest.fixture
def instance():
    return biskup_instance(n=8, h=0.4, k=1)


@pytest.fixture
def body(instance):
    return {
        "instance": instance.to_dict(),
        "method": "serial_sa",
        "config": {"iterations": 100, "seed": 5},
    }


class TestInstanceDigest:
    def test_stable_across_reconstruction(self, instance):
        clone = CDDInstance.from_dict(instance.to_dict())
        assert instance_digest(clone) == instance_digest(instance)

    def test_sensitive_to_problem_fields(self, instance):
        data = instance.to_dict()
        data["due_date"] = data["due_date"] + 1.0
        changed = CDDInstance.from_dict(data)
        assert instance_digest(changed) != instance_digest(instance)

    def test_distinguishes_problem_kinds(self, instance):
        other = ucddcp_instance(n=8, k=1)
        assert instance_digest(other) != instance_digest(instance)

    def test_mapping_digest_is_order_insensitive(self):
        assert mapping_digest({"a": 1, "b": 2}) == mapping_digest(
            {"b": 2, "a": 1}
        )


class TestCacheKey:
    """The key must react to every component of solve identity —
    and to nothing else."""

    def test_equivalent_spellings_share_a_key(self, instance, body):
        from repro.core.sa import SerialSAConfig

        explicit = dict(body)
        explicit["config"] = {
            "iterations": 100,
            "seed": 5,
            "pert_size": SerialSAConfig().pert_size,
        }
        assert key_for(explicit).hex == key_for(body).hex

    def test_sensitive_to_instance(self, body):
        other = dict(body)
        other["instance"] = biskup_instance(n=8, h=0.6, k=1).to_dict()
        assert key_for(other).hex != key_for(body).hex

    def test_sensitive_to_method(self, body):
        other = dict(body)
        other["method"] = "serial_ta"
        assert key_for(other).hex != key_for(body).hex

    def test_sensitive_to_config(self, body):
        other = dict(body)
        other["config"] = {"iterations": 101, "seed": 5}
        assert key_for(other).hex != key_for(body).hex

    def test_sensitive_to_seed(self, body):
        other = dict(body)
        other["config"] = {"iterations": 100, "seed": 6}
        key, other_key = key_for(body), key_for(other)
        assert other_key.hex != key.hex
        # ... and only through the seed component.
        assert other_key.config == key.config
        assert other_key.instance == key.instance

    def test_sensitive_to_device_profile(self, instance):
        base = {
            "instance": instance.to_dict(),
            "method": "parallel_sa",
            "config": {"iterations": 10},
        }
        other = {
            "instance": instance.to_dict(),
            "method": "parallel_sa",
            "config": {"iterations": 10, "device_profile": "pascal"},
        }
        key, other_key = key_for(base), key_for(other)
        assert other_key.hex != key.hex
        assert other_key.device_profile != key.device_profile

    def test_sensitive_to_engine_backend(self, instance):
        base = {
            "instance": instance.to_dict(),
            "method": "parallel_sa",
            "config": {"iterations": 10},
        }
        other = dict(base, backend="multiprocess")
        assert key_for(other).hex != key_for(base).hex


class TestResultCache:
    def test_miss_then_store_then_hit(self, tmp_path, body):
        cache = ResultCache(tmp_path / "cache")
        key = key_for(body)
        assert cache.load(key) is None
        payload = {"result": {"objective": 42.0}}
        cache.store(key, payload)
        assert cache.load(key) == payload
        assert cache.stats() == {
            "hits": 1, "misses": 1, "stores": 1, "quarantined": 0,
        }

    def test_entries_are_crc_guarded_records(self, tmp_path, body):
        cache = ResultCache(tmp_path / "cache")
        key = key_for(body)
        cache.store(key, {"x": 1})
        record = json.loads(cache.path_for(key).read_text())
        assert record["schema"] == CACHE_SCHEMA
        assert record["key"] == key.hex
        assert record["components"] == key.components()
        assert record["crc"] == record_crc(record)

    def test_corrupt_json_is_quarantined(self, tmp_path, body):
        cache = ResultCache(tmp_path / "cache")
        key = key_for(body)
        cache.store(key, {"x": 1})
        path = cache.path_for(key)
        corrupt = path.read_text()[:-10]
        path.write_text(corrupt)
        assert cache.load(key) is None
        assert not path.exists()
        quarantined = tmp_path / "cache" / "quarantine" / path.name
        assert quarantined.read_text() == corrupt  # evidence kept verbatim
        assert cache.stats()["quarantined"] == 1
        # The miss recomputes and restores the entry.
        cache.store(key, {"x": 1})
        assert cache.load(key) == {"x": 1}

    def test_bitrot_fails_the_crc_and_quarantines(self, tmp_path, body):
        cache = ResultCache(tmp_path / "cache")
        key = key_for(body)
        cache.store(key, {"objective": 42.0})
        path = cache.path_for(key)
        record = json.loads(path.read_text())
        record["payload"]["objective"] = 41.0  # flip without fixing the CRC
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        assert cache.load(key) is None
        assert (tmp_path / "cache" / "quarantine" / path.name).exists()

    def test_unknown_schema_is_quarantined(self, tmp_path, body):
        cache = ResultCache(tmp_path / "cache")
        key = key_for(body)
        cache.store(key, {"x": 1})
        path = cache.path_for(key)
        record = json.loads(path.read_text())
        record["schema"] = CACHE_SCHEMA + 1
        record["crc"] = record_crc(record)
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        assert cache.load(key) is None
        assert cache.stats()["quarantined"] == 1

    def test_key_mismatch_is_quarantined(self, tmp_path, body):
        """An entry renamed onto the wrong address must not be served."""
        cache = ResultCache(tmp_path / "cache")
        key = key_for(body)
        other = dict(body)
        other["config"] = {"iterations": 100, "seed": 6}
        other_key = key_for(other)
        cache.store(other_key, {"x": 1})
        target = cache.path_for(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(other_key).rename(target)
        assert cache.load(key) is None
        assert cache.stats()["quarantined"] == 1

    def test_two_level_fanout_layout(self, tmp_path, body):
        cache = ResultCache(tmp_path / "cache")
        key = key_for(body)
        path = cache.path_for(key)
        assert path.parent.name == key.hex[:2]
        assert path.name == f"{key.hex}.json"
