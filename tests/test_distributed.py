"""End-to-end tests for the distributed pool: agent handshake, the
bit-identity contract of ``backend="distributed"`` against the local
multiprocess pool (including a mid-run agent SIGKILL), graceful
degradation, and the façade/CLI knob validation."""

import threading
import warnings

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.engine.backends import DistributedBackend, create_backend
from repro.core.solver import solver_for
from repro.instances.biskup import biskup_instance
from repro.pool.agent import HostAgent, spawn_local_agent
from repro.pool.errors import AllHostsLostError, HostProtocolError
from repro.pool.faults import parse_net_fault
from repro.pool.hosts import HostPool
from repro.pool.net import (
    FRAME_HELLO,
    FRAME_REJECT,
    FRAME_WELCOME,
    PROTOCOL_VERSION,
    HostSpec,
    client_socket,
    read_frame,
    send_json_frame,
)
from repro.pool.worker import solve_one

#: Small but non-trivial: 4 blocks so a 2-worker topology gets 2 shards.
SOLVE_KW = dict(iterations=60, grid_size=4, block_size=32, seed=7)


@pytest.fixture(autouse=True)
def _quiet_oversubscription():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.fixture
def agent_pair():
    """Two single-worker localhost agents on ephemeral ports."""
    agents = [spawn_local_agent(workers=1) for _ in range(2)]
    yield agents
    for proc, _ in agents:
        if proc.is_alive():
            proc.terminate()
        proc.join()


def _hosts_arg(agents, workers=1):
    return ",".join(
        f"{addr[0]}:{addr[1]}:{workers}" for _, addr in agents
    )


def _same_result(a, b):
    return a.objective == b.objective and np.array_equal(
        a.best_sequence, b.best_sequence
    )


class TestHandshake:
    def test_welcome_announces_protocol_and_capacity(self, agent_pair):
        _, addr = agent_pair[0]
        sock = client_socket(tuple(addr), 5.0, 5.0)
        try:
            send_json_frame(
                sock, FRAME_HELLO,
                {"protocol": PROTOCOL_VERSION, "client": "test"},
            )
            frame = read_frame(sock)
            assert frame.kind == FRAME_WELCOME
            welcome = frame.json()
            assert welcome["protocol"] == PROTOCOL_VERSION
            assert welcome["workers"] == 1
            assert welcome["host"] == f"{addr[0]}:{addr[1]}"
            assert welcome["pid"] > 0
        finally:
            sock.close()

    def test_version_mismatch_rejected_and_agent_survives(self, agent_pair):
        _, addr = agent_pair[0]
        sock = client_socket(tuple(addr), 5.0, 5.0)
        try:
            send_json_frame(
                sock, FRAME_HELLO, {"protocol": PROTOCOL_VERSION + 1}
            )
            frame = read_frame(sock)
            assert frame.kind == FRAME_REJECT
            assert "protocol version mismatch" in frame.json()["reason"]
        finally:
            sock.close()
        # The agent goes back to accepting: a correct handshake succeeds.
        sock = client_socket(tuple(addr), 5.0, 5.0)
        try:
            send_json_frame(
                sock, FRAME_HELLO, {"protocol": PROTOCOL_VERSION}
            )
            assert read_frame(sock).kind == FRAME_WELCOME
        finally:
            sock.close()

    def test_client_refuses_version_skewed_agent(self, agent_pair, monkeypatch):
        # The client-side check: a WELCOME carrying another version is a
        # protocol error, not a transient connect failure.
        monkeypatch.setattr(
            "repro.pool.hosts.PROTOCOL_VERSION", PROTOCOL_VERSION + 7
        )
        _, addr = agent_pair[0]
        pool = HostPool([HostSpec(addr[0], addr[1], 1)])
        with pytest.raises(HostProtocolError, match="rejected the connection"):
            list(pool.imap_unordered([(solve_one, (None, "x", {}))]))

    def test_agent_binds_ephemeral_port(self):
        agent = HostAgent("127.0.0.1", 0, 1)
        host, port = agent.address
        assert host == "127.0.0.1" and port > 0
        assert agent.label == f"{host}:{port}"


class TestBitIdentity:
    def test_distributed_solve_matches_local_multiprocess(self, agent_pair):
        inst = biskup_instance(10, 0.4, 1)
        ref = solver_for(inst).solve(
            "parallel_sa", backend="multiprocess", workers=2, **SOLVE_KW
        )
        dist = solver_for(inst).solve(
            "parallel_sa", backend="distributed",
            hosts=_hosts_arg(agent_pair), **SOLVE_KW
        )
        assert _same_result(dist, ref)
        assert dist.params["backend"] == "distributed"
        assert dist.params["hosts"] == _hosts_arg(agent_pair)
        assert dist.params["workers"] == 2

    def test_unbalanced_topology_same_answer(self, agent_pair):
        # The shard plan depends only on the topology's total credit, so
        # 2 one-worker hosts and the equivalent local pool agree.
        inst = biskup_instance(10, 0.6, 2)
        via_one_host = solver_for(inst).solve(
            "parallel_sa", backend="distributed",
            hosts=_hosts_arg(agent_pair[:1], workers=2), **SOLVE_KW
        )
        ref = solver_for(inst).solve(
            "parallel_sa", backend="multiprocess", workers=2, **SOLVE_KW
        )
        assert _same_result(via_one_host, ref)


class TestFailover:
    def test_mid_run_agent_kill_is_bit_identical(self, agent_pair):
        # Enough work that the SIGKILL lands while shards are in flight.
        kw = dict(SOLVE_KW, iterations=1500, grid_size=8)
        inst = biskup_instance(10, 0.4, 1)
        ref = solver_for(inst).solve(
            "parallel_sa", backend="multiprocess", workers=2, **kw
        )
        victim, _ = agent_pair[1]
        killer = threading.Timer(0.3, victim.kill)
        killer.start()
        try:
            dist = solver_for(inst).solve(
                "parallel_sa", backend="distributed",
                hosts=_hosts_arg(agent_pair),
                heartbeat_interval_s=0.1, heartbeat_timeout_s=0.5,
                reconnect_attempts=2, backoff_base_s=0.02,
                connect_timeout_s=1.0, **kw
            )
        finally:
            killer.join()
        assert victim.exitcode == -9, "the drill must actually kill an agent"
        assert _same_result(dist, ref)

    def test_all_hosts_lost_degrades_to_local_pool(self, agent_pair):
        inst = biskup_instance(10, 0.4, 1)
        ref = solver_for(inst).solve(
            "parallel_sa", backend="multiprocess", workers=2, **SOLVE_KW
        )
        hosts = _hosts_arg(agent_pair)
        for proc, _ in agent_pair:
            proc.kill()
            proc.join()
        with pytest.warns(RuntimeWarning, match="degrading to the local"):
            dist = solver_for(inst).solve(
                "parallel_sa", backend="distributed", hosts=hosts,
                reconnect_attempts=1, backoff_base_s=0.02,
                connect_timeout_s=0.5, **SOLVE_KW
            )
        assert _same_result(dist, ref)

    def test_local_fallback_can_be_disabled(self):
        inst = biskup_instance(10, 0.4, 1)
        with pytest.raises(AllHostsLostError):
            solver_for(inst).solve(
                "parallel_sa", backend="distributed",
                hosts="127.0.0.1:1:1", local_fallback=False,
                reconnect_attempts=1, backoff_base_s=0.02,
                connect_timeout_s=0.5, **SOLVE_KW
            )


class TestBackendConstruction:
    def test_backend_requires_host_topology(self):
        with pytest.raises(ValueError, match="host topology"):
            DistributedBackend()
        with pytest.raises(ValueError, match="host topology"):
            create_backend("distributed")

    def test_backend_parses_topology_string(self):
        backend = DistributedBackend(hosts="a:4,b:7471:8")
        assert backend.workers == 12
        assert [spec.workers for spec in backend.hosts] == [4, 8]

    def test_backend_accepts_spec_sequence(self):
        backend = DistributedBackend(hosts=[HostSpec("a", 7000, 2)])
        assert backend.workers == 2


class TestFacadeValidation:
    def setup_method(self):
        self.solver = solver_for(biskup_instance(10, 0.4, 1))

    def test_distributed_requires_hosts(self):
        with pytest.raises(ValueError, match="requires\n?.*hosts="):
            self.solver.solve("parallel_sa", backend="distributed")

    def test_workers_conflicts_with_topology(self):
        with pytest.raises(ValueError, match="fixed by the host topology"):
            self.solver.solve(
                "parallel_sa", backend="distributed", hosts="a:1", workers=2
            )

    def test_task_timeout_is_agent_side(self):
        with pytest.raises(ValueError, match="agent-side"):
            self.solver.solve(
                "parallel_sa", backend="distributed", hosts="a:1",
                task_timeout=1.0,
            )

    def test_pool_faults_rejected_for_distributed(self):
        with pytest.raises(ValueError, match="net_faults"):
            self.solver.solve(
                "parallel_sa", backend="distributed", hosts="a:1",
                pool_faults=object(),
            )

    def test_hosts_requires_distributed_backend(self):
        with pytest.raises(ValueError, match="hosts= requires"):
            self.solver.solve("parallel_sa", hosts="a:1")

    def test_distributed_knobs_require_distributed_backend(self):
        with pytest.raises(ValueError, match="requires backend='distributed'"):
            self.solver.solve(
                "parallel_sa", backend="multiprocess", workers=2,
                heartbeat_timeout_s=1.0,
            )


class TestCLIFlags:
    def test_agent_subcommand_parses(self):
        args = build_parser().parse_args(
            ["agent", "--bind", "0.0.0.0:7471", "--workers", "4",
             "--task-timeout", "30"]
        )
        assert args.bind == "0.0.0.0:7471"
        assert args.workers == 4
        assert args.task_timeout == 30.0

    def test_solve_distributed_flags_parse(self):
        args = build_parser().parse_args(
            ["solve", "cdd", "--backend", "distributed",
             "--hosts", "h1:4,h2:8", "--heartbeat-timeout", "5",
             "--inject-net-fault", "disconnect:0"]
        )
        assert args.hosts == "h1:4,h2:8"
        assert args.heartbeat_timeout == 5.0
        assert args.inject_net_fault.specs == (parse_net_fault("disconnect:0"),)

    def test_hosts_flag_requires_distributed_backend(self, capsys):
        rc = main(["solve", "cdd", "-n", "10", "--hosts", "h1:4"])
        assert rc == 2
        assert "--backend distributed" in capsys.readouterr().err

    def test_distributed_backend_requires_hosts_flag(self, capsys):
        rc = main(["solve", "cdd", "-n", "10", "--backend", "distributed"])
        assert rc == 2
        assert "--hosts" in capsys.readouterr().err

    def test_workers_flag_rejected_for_distributed(self, capsys):
        rc = main([
            "solve", "cdd", "-n", "10", "--backend", "distributed",
            "--hosts", "h1:4", "--workers", "2",
        ])
        assert rc == 2
        assert "does not apply" in capsys.readouterr().err

    def test_bad_bind_rejected(self, capsys):
        rc = main(["agent", "--bind", "127.0.0.1:notaport"])
        assert rc == 2
