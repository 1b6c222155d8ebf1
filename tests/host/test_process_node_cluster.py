"""Unit tests for processes, nodes and clusters."""

import pytest

from repro.errors import ConfigError, DeviceNotFoundError
from repro.host.cluster import Cluster
from repro.host.node import Node, total_device_count
from repro.host.process import ProcessError, ProcessTable
from repro.sim.rng import RngRegistry


class TestProcessTable:
    def test_spawn_assigns_unique_pids(self):
        table = ProcessTable()
        p1, p2 = table.spawn("a"), table.spawn("b")
        assert p1.pid != p2.pid

    def test_charge_accumulates(self):
        proc = ProcessTable().spawn("app")
        proc.charge(0.5)
        proc.charge(0.25)
        assert proc.cpu_seconds == 0.75

    def test_charge_negative_rejected(self):
        proc = ProcessTable().spawn("app")
        with pytest.raises(ProcessError):
            proc.charge(-1.0)

    def test_charge_after_exit_rejected(self):
        table = ProcessTable()
        proc = table.spawn("app")
        table.exit(proc.pid)
        with pytest.raises(ProcessError):
            proc.charge(0.1)

    def test_double_exit_rejected(self):
        table = ProcessTable()
        proc = table.spawn("app")
        table.exit(proc.pid)
        with pytest.raises(ProcessError):
            table.exit(proc.pid)

    def test_living_and_by_name(self):
        table = ProcessTable()
        a = table.spawn("micras")
        table.spawn("micras")
        table.exit(a.pid)
        assert len(table.living()) == 1
        assert len(table.by_name("micras")) == 2

    def test_unknown_pid_rejected(self):
        with pytest.raises(ProcessError):
            ProcessTable().get(99)


class TestNode:
    def test_standard_directories_exist(self):
        node = Node("n0")
        for d in ("/dev", "/sys", "/proc", "/tmp"):
            assert node.vfs.is_dir(d)

    def test_attach_and_lookup_devices(self):
        node = Node("n0")
        idx0 = node.attach("gpu", "K20")
        idx1 = node.attach("gpu", "K40")
        assert (idx0, idx1) == (0, 1)
        assert node.device("gpu", 1) == "K40"
        assert node.devices("gpu") == ["K20", "K40"]
        assert node.device_kinds() == ["gpu"]

    def test_missing_device_raises(self):
        node = Node("n0")
        with pytest.raises(DeviceNotFoundError):
            node.device("mic", 0)

    def test_spawn_defaults_to_user(self):
        proc = Node("n0").spawn("app")
        assert not proc.creds.is_root

    def test_run_until_advances_clock(self):
        node = Node("n0")
        node.run_until(5.0)
        assert node.clock.now == 5.0


class TestCluster:
    @staticmethod
    def factory(hostname, rng, clock):
        node = Node(hostname, rng=rng, clock=clock)
        node.attach("mic", f"phi-of-{hostname}")
        return node

    def test_populate_creates_named_nodes(self):
        cluster = Cluster("stampede")
        cluster.populate(3, self.factory)
        assert len(cluster) == 3
        assert cluster.node(0).hostname == "stampede-0000"

    def test_nodes_share_clock(self):
        cluster = Cluster("c")
        cluster.populate(2, self.factory)
        assert cluster.node(0).clock is cluster.node(1).clock

    def test_rng_namespaces_differ_per_node(self):
        cluster = Cluster("c")
        cluster.populate(2, self.factory)
        assert cluster.node(0).rng.seed("x") != cluster.node(1).rng.seed("x")

    def test_populate_is_stable_under_growth(self):
        """Adding more nodes must not change existing nodes' RNG seeds."""
        c1 = Cluster("c", rng=RngRegistry(5))
        c1.populate(2, self.factory)
        seed_before = c1.node(0).rng.seed("sensor")
        c2 = Cluster("c", rng=RngRegistry(5))
        c2.populate(4, self.factory)
        assert c2.node(0).rng.seed("sensor") == seed_before

    def test_devices_across_cluster(self):
        cluster = Cluster("c")
        cluster.populate(4, self.factory)
        assert len(cluster.devices("mic")) == 4
        assert total_device_count(cluster, "mic") == 4

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            Cluster("c").populate(0, self.factory)

    def test_run_until(self):
        cluster = Cluster("c")
        cluster.populate(2, self.factory)
        cluster.run_until(3.0)
        assert cluster.clock.now == 3.0
