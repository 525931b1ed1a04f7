"""The scheduling service: admission, queue, HTTP API, fault isolation."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.core.solver import solver_for
from repro.instances import biskup_instance
from repro.pool.faults import PoolFaultPlan, parse_pool_fault
from repro.service.admission import (
    AdmissionPolicy,
    ValidationError,
    validate_request,
)
from repro.service.api import SchedulingService, _render, make_server
from repro.service.cache import ResultCache

POLICY = AdmissionPolicy()


@pytest.fixture
def instance():
    return biskup_instance(n=8, h=0.4, k=1)


@pytest.fixture
def body(instance):
    return {
        "instance": instance.to_dict(),
        "method": "serial_sa",
        "config": {"iterations": 60, "seed": 5},
    }


def wait_for(predicate, timeout=30.0, tick=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(tick)
    return False


def wait_state(service, job_id, states=("done", "failed"), timeout=30.0):
    assert wait_for(
        lambda: service.registry.status(job_id)["state"] in states,
        timeout=timeout,
    ), service.registry.status(job_id)
    return service.registry.status(job_id)


@pytest.fixture
def service(tmp_path):
    svc = SchedulingService(
        policy=AdmissionPolicy(queue_cap=4),
        workers=1,
        cache=ResultCache(tmp_path / "cache"),
    )
    svc.start()
    yield svc
    svc.stop()


class TestValidation:
    def test_rejects_non_object_bodies(self):
        with pytest.raises(ValidationError, match="JSON object"):
            validate_request([1, 2], POLICY)

    def test_rejects_unknown_fields(self, body):
        with pytest.raises(ValidationError, match="unknown request field"):
            validate_request(dict(body, priority=9), POLICY)

    def test_rejects_bad_instances(self, body):
        with pytest.raises(ValidationError, match="bad instance"):
            validate_request(
                dict(body, instance={"kind": "cdd", "processing": [1.0]}),
                POLICY,
            )

    def test_rejects_unknown_methods(self, body):
        with pytest.raises(ValidationError, match="unknown method"):
            validate_request(dict(body, method="gradient_descent"), POLICY)

    def test_runs_the_config_mixin_checks(self, body):
        with pytest.raises(ValidationError, match="iterations"):
            validate_request(
                dict(body, config={"iterations": -5}), POLICY
            )

    def test_rejects_unknown_config_keys(self, body):
        with pytest.raises(ValidationError, match="bad config"):
            validate_request(
                dict(body, config={"iterationz": 10}), POLICY
            )

    def test_reserved_execution_knobs_are_refused(self, body):
        with pytest.raises(ValidationError, match="execution knobs"):
            validate_request(dict(body, config={"workers": 64}), POLICY)
        with pytest.raises(ValidationError, match="execution knobs"):
            validate_request(
                dict(body, config={"hosts": "evil:1"}), POLICY
            )

    def test_serial_methods_take_no_engine_backend(self, body):
        with pytest.raises(ValidationError, match="no engine backend"):
            validate_request(dict(body, backend="vectorized"), POLICY)

    def test_parallel_methods_default_the_policy_backend(self, instance):
        validated = validate_request(
            {"instance": instance.to_dict(), "method": "parallel_sa"},
            POLICY,
        )
        assert validated.backend == POLICY.default_backend
        assert validated.solve_kwargs["backend"] == POLICY.default_backend

    def test_distributed_requires_server_hosts(self, instance):
        request = {
            "instance": instance.to_dict(),
            "method": "parallel_sa",
            "backend": "distributed",
        }
        with pytest.raises(ValidationError, match="--hosts"):
            validate_request(request, POLICY)
        allowed = AdmissionPolicy(hosts="localhost:7471:2")
        validated = validate_request(request, allowed)
        assert validated.solve_kwargs["hosts"] == "localhost:7471:2"

    def test_policy_refuses_distributed_default_without_hosts(self):
        with pytest.raises(ValueError, match="host topology"):
            AdmissionPolicy(default_backend="distributed")
        policy = AdmissionPolicy(default_backend="distributed", hosts="a:1")
        assert policy.default_backend == "distributed"

    def test_policy_refuses_unparseable_hosts(self):
        with pytest.raises(ValueError, match="bad host spec"):
            AdmissionPolicy(hosts="not a topology")

    def test_serve_exits_2_on_bad_topology(self, capsys):
        from repro.cli import main

        rc = main(["serve", "--bind", "127.0.0.1:0", "--cache-dir", "none",
                   "--hosts", "not a topology"])
        assert rc == 2
        assert "bad host spec" in capsys.readouterr().err

    def test_exact_takes_no_config(self, instance):
        with pytest.raises(ValidationError, match="takes no config"):
            validate_request(
                {
                    "instance": instance.to_dict(),
                    "method": "exact",
                    "config": {"iterations": 5},
                },
                POLICY,
            )

    def test_deadline_must_be_positive(self, body):
        with pytest.raises(ValidationError, match="deadline_s"):
            validate_request(dict(body, deadline_s=-1), POLICY)
        with pytest.raises(ValidationError, match="deadline_s"):
            validate_request(dict(body, deadline_s="soon"), POLICY)

    def test_canonical_config_resolves_defaults(self, instance):
        sparse = validate_request(
            {"instance": instance.to_dict(), "method": "serial_sa"},
            POLICY,
        )
        from repro.core.sa import SerialSAConfig

        explicit = validate_request(
            {
                "instance": instance.to_dict(),
                "method": "serial_sa",
                "config": {"iterations": SerialSAConfig().iterations},
            },
            POLICY,
        )
        assert sparse.canonical_config == explicit.canonical_config


class TestServiceCore:
    def test_solve_matches_direct_solver(self, service, instance, body):
        status, doc, _ = service.submit(body)
        assert status == 202 and doc["state"] == "queued"
        wait_state(service, doc["job_id"])
        code, result_doc, _ = service.job_result(doc["job_id"])
        assert code == 200
        direct = solver_for(instance).solve(
            "serial_sa", iterations=60, seed=5
        )
        assert result_doc["result"]["objective"] == direct.objective
        assert (
            result_doc["result"]["best_sequence"]
            == direct.best_sequence.tolist()
        )
        assert (
            result_doc["result"]["completion"]
            == direct.schedule.completion.tolist()
        )

    def test_cache_hit_is_byte_identical(self, service, body):
        status, first, _ = service.submit(body)
        assert status == 202
        wait_state(service, first["job_id"])
        _, fresh, _ = service.job_result(first["job_id"])
        status, second, _ = service.submit(body)
        assert status == 200  # served immediately, no queueing
        assert second["state"] == "done" and second["cached"] is True
        _, replayed, _ = service.job_result(second["job_id"])
        assert _render(replayed) == _render(fresh)
        counters = service.metrics.snapshot()
        assert counters["cache_hits"] == 1
        assert counters["cache_misses"] == 1
        assert counters["cache_stores"] == 1

    def test_jobs_share_one_cache_entry_across_spellings(
        self, service, instance, body
    ):
        from repro.core.sa import SerialSAConfig

        service.submit(body)
        explicit = {
            "instance": instance.to_dict(),
            "method": "serial_sa",
            "config": {
                "iterations": 60,
                "seed": 5,
                "pert_size": SerialSAConfig().pert_size,
            },
        }
        status, doc, _ = service.submit(body)
        wait_state(service, doc["job_id"])
        status, doc, _ = service.submit(explicit)
        assert status == 200 and doc["cached"] is True

    def test_invalid_submission_is_400(self, service, body):
        status, doc, _ = service.submit(dict(body, method="nope"))
        assert status == 400
        assert doc["error_type"] == "validation"
        assert service.metrics.snapshot()["rejected_invalid"] == 1

    def test_unknown_job_is_404_and_unfinished_is_409(self, service, body):
        assert service.job_status("zzz")[0] == 404
        assert service.job_result("zzz")[0] == 404
        status, doc, _ = service.submit(body)
        code, unfinished, _ = service.job_result(doc["job_id"])
        if code != 200:  # the worker may legitimately win the race
            assert code == 409
            assert unfinished["error_type"] == "unfinished"
        wait_state(service, doc["job_id"])

    def test_batch_admits_items_independently(self, service, instance, body):
        bad = dict(body, method="nope")
        status, doc, _ = service.submit_batch({"jobs": [body, bad]})
        assert status == 200
        first, second = doc["jobs"]
        assert first["status"] == 202
        assert second["status"] == 400
        wait_state(service, first["job_id"])

    def test_batch_size_is_bounded(self, service, body):
        over = [body] * (service.policy.max_batch + 1)
        status, doc, _ = service.submit_batch({"jobs": over})
        assert status == 400 and "max_batch" in doc["error"]


class TestQueueFull:
    def test_429_while_full_without_degrading_inflight(self, tmp_path):
        service = SchedulingService(
            policy=AdmissionPolicy(queue_cap=1, retry_after_s=2.0),
            workers=1,
            cache=None,
        )
        service.start()
        try:
            inst = biskup_instance(n=40, h=0.4, k=1)
            slow = {
                "instance": inst.to_dict(),
                "method": "serial_sa",
                "config": {"iterations": 2_000_000, "seed": 1},
            }
            quick = {
                "instance": inst.to_dict(),
                "method": "serial_sa",
                "config": {"iterations": 10, "seed": 2},
            }
            status, running, _ = service.submit(slow)
            assert status == 202
            # Wait until the worker picked it up, so the queue slot frees.
            assert wait_for(
                lambda: service.registry.status(
                    running["job_id"]
                )["state"] == "running"
            )
            status, queued, _ = service.submit(quick)
            assert status == 202  # occupies the one queue slot
            status, doc, headers = service.submit(quick)
            assert status == 429
            assert doc["error_type"] == "queue_full"
            assert headers["Retry-After"] == "2"
            # The bounced job left no registry ghost behind.
            assert service.registry.counts()["queued"] == 1
            assert service.metrics.snapshot()["rejected_queue_full"] == 1
            # In-flight and queued work is unaffected by the rejection.
            assert service.health()[1]["status"] == "ok"
            assert (
                service.registry.status(running["job_id"])["state"]
                == "running"
            )
        finally:
            # Shutdown cancels the multi-minute in-flight solve promptly.
            start = time.monotonic()
            service.stop()
            assert time.monotonic() - start < 10.0
        status = service.registry.status(running["job_id"])
        assert status["state"] == "failed"
        assert status["error"]["error_type"] in ("cancelled", "shutdown")


class TestWorkerFaults:
    def test_killed_worker_fails_one_job_not_the_service(
        self, tmp_path, body
    ):
        service = SchedulingService(
            policy=AdmissionPolicy(queue_cap=4),
            workers=1,
            cache=ResultCache(tmp_path / "cache"),
            fault_plan=PoolFaultPlan([parse_pool_fault("kill:0")]),
        )
        service.start()
        try:
            status, doomed, _ = service.submit(body)
            assert status == 202
            final = wait_state(service, doomed["job_id"])
            assert final["state"] == "failed"
            assert final["error"]["error_type"] == "worker_crash"
            code, failed_doc, _ = service.job_result(doomed["job_id"])
            assert code == 500
            assert failed_doc["error"]["error_type"] == "worker_crash"
            # A failed solve never populates the cache.
            assert service.cache.stats()["stores"] == 0
            # The service keeps serving: the next job (seq 1) runs clean.
            status, healthy, _ = service.submit(
                dict(body, config={"iterations": 60, "seed": 6})
            )
            final = wait_state(service, healthy["job_id"])
            assert final["state"] == "done"
            assert service.health()[1]["status"] == "ok"
        finally:
            service.stop()

    def test_retries_absorb_a_transient_worker_death(self, tmp_path, body):
        service = SchedulingService(
            policy=AdmissionPolicy(queue_cap=4),
            workers=1,
            cache=None,
            task_retries=1,
            fault_plan=PoolFaultPlan([parse_pool_fault("kill:0")]),
        )
        service.start()
        try:
            status, doc, _ = service.submit(body)
            final = wait_state(service, doc["job_id"])
            assert final["state"] == "done"
        finally:
            service.stop()

    def test_deadline_maps_onto_the_dispatch_watchdog(self, instance):
        service = SchedulingService(
            policy=AdmissionPolicy(queue_cap=4), workers=1, cache=None
        )
        service.start()
        try:
            hung = {
                "instance": biskup_instance(n=40, h=0.4, k=1).to_dict(),
                "method": "serial_sa",
                "config": {"iterations": 2_000_000, "seed": 1},
                "deadline_s": 0.3,
            }
            status, doc, _ = service.submit(hung)
            assert status == 202
            final = wait_state(service, doc["job_id"])
            assert final["state"] == "failed"
            assert final["error"]["error_type"] == "worker_timeout"
        finally:
            service.stop()


def http_call(base, method, path, body=None, timeout=15):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


class TestHTTPLayer:
    @pytest.fixture
    def served(self, service):
        server = make_server(service, "127.0.0.1", 0)
        import threading

        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://{server.label}"
        server.shutdown()
        server.server_close()

    def test_end_to_end_over_http(self, served, instance, body):
        code, health, _ = http_call(served, "GET", "/healthz")
        assert code == 200 and health["status"] == "ok"
        code, doc, _ = http_call(served, "POST", "/v1/submit", body)
        assert code == 202
        job_id = doc["job_id"]
        assert wait_for(lambda: http_call(
            served, "GET", f"/v1/jobs/{job_id}"
        )[1]["state"] == "done")
        code, result, _ = http_call(
            served, "GET", f"/v1/jobs/{job_id}/result"
        )
        assert code == 200
        direct = solver_for(instance).solve(
            "serial_sa", iterations=60, seed=5
        )
        assert result["result"]["objective"] == direct.objective
        code, metrics, _ = http_call(served, "GET", "/metrics")
        assert code == 200
        assert metrics["counters"]["jobs_completed"] == 1

    def test_http_cache_hit_replays_identical_bytes(self, served, body):
        code, first, _ = http_call(served, "POST", "/v1/submit", body)
        assert wait_for(lambda: http_call(
            served, "GET", f"/v1/jobs/{first['job_id']}"
        )[1]["state"] == "done")
        raw = []
        for _ in range(2):
            c, doc, _ = http_call(served, "POST", "/v1/submit", body)
            assert c == 200 and doc["cached"] is True
            with urllib.request.urlopen(
                f"{served}/v1/jobs/{doc['job_id']}/result", timeout=15
            ) as response:
                raw.append(response.read())
        assert raw[0] == raw[1]

    def test_unknown_route_is_404(self, served):
        assert http_call(served, "GET", "/v2/nope")[0] == 404
        assert http_call(served, "POST", "/v1/nope", {})[0] == 404

    @pytest.mark.parametrize(
        "method, config",
        [
            ("parallel_sa", {"t0_samples": 1}),
            ("serial_sa", {"t0_samples": 0}),
            ("serial_ta", {"theta0_samples": 1}),
            ("parallel_sa", {"t0": -1.0}),
            ("serial_ta", {"theta0": -2.0}),
        ],
    )
    def test_bad_start_temperature_is_400(self, served, service, instance,
                                          method, config):
        # Refused at admission, not admitted to die (or run with a
        # negative temperature) in the child.
        request = {"instance": instance.to_dict(), "method": method,
                   "config": {"iterations": 20, **config}}
        code, doc, _ = http_call(served, "POST", "/v1/submit", request)
        assert code == 400 and doc["error_type"] == "validation"
        assert next(iter(config)) in doc["error"]
        assert service.metrics.snapshot()["rejected_invalid"] == 1
        assert sum(service.registry.counts().values()) == 0

    def test_unparseable_body_is_400(self, served):
        request = urllib.request.Request(
            served + "/v1/submit", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=15)
        assert info.value.code == 400

    def test_oversized_body_is_413(self, service, served):
        big = b"x" * (service.policy.max_body_bytes + 1)
        request = urllib.request.Request(
            served + "/v1/submit", data=big, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=15)
        assert info.value.code == 413


class TestServeCLI:
    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--bind", "127.0.0.1:0", "--workers", "2",
            "--queue-cap", "3", "--cache-dir", "none",
            "--ready-file", "/tmp/svc.addr", "--task-timeout", "5",
            "--inject-pool-fault", "kill:0",
        ])
        assert args.command == "serve"
        assert args.workers == 2 and args.queue_cap == 3
        assert args.cache_dir == "none"
        assert args.ready_file == "/tmp/svc.addr"

    def test_ready_file_semantics_match_repro_agent(self, tmp_path):
        """serve --ready-file writes HOST:PORT after bind, like agent."""
        ready = tmp_path / "service.addr"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in (env.get("PYTHONPATH"),) if p]
            + [os.path.join(os.getcwd(), "src")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--bind", "127.0.0.1:0", "--ready-file", str(ready),
             "--cache-dir", "none"],
            env=env, stderr=subprocess.PIPE,
        )
        try:
            assert wait_for(
                lambda: ready.exists() and ready.read_text().strip() != "",
                timeout=30.0, tick=0.1,
            )
            label = ready.read_text().strip()
            host, port = label.rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            code, health, _ = http_call(f"http://{label}", "GET", "/healthz")
            assert code == 200 and health["status"] == "ok"
        finally:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)
        assert proc.returncode == 0
