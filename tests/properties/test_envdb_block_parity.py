"""Property test: an envdb sweep metered as one block over every BPM
stores exactly the rows a per-BPM scalar evaluation gives.

The sweep draws meter noise and coolant jitter as seed-array hashes and
evaluates board power once per distinct board schedule.  Each stored
row must equal, bit for bit, the row built from that BPM's own
``input_power_w``/``output_power_w`` truth plus scalar ``hash_normal``
draws — over idle boards, two job partitions of one workload started
at different times, and a partition board that also carries a
parasitic load.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgq.machine import BgqMachine
from repro.sim.hashrand import hash_normal
from repro.sim.rng import RngRegistry
from repro.sim.signals import ConstantSignal
from repro.workloads.base import Component
from repro.workloads.mmps import MmpsWorkload


def _expected_rows(bpm, t):
    idx = int(round(t * 1000.0))
    input_w = float(bpm.input_power_w(t)) + float(
        hash_normal(bpm.seed, idx)) * bpm.meter_noise_w
    output_w = float(bpm.output_power_w(t)) + float(
        hash_normal(bpm.seed ^ 0xBEEF, idx)) * bpm.meter_noise_w
    jitter = float(hash_normal(bpm.seed ^ 0xC0FFEE, int(round(t))))
    board = bpm.node_board.location
    return {
        ("bpm", bpm.location): {
            "input_power_w": input_w,
            "input_current_a": input_w / 208.0,
            "output_power_w": output_w,
            "output_current_a": output_w / 48.0,
        },
        ("coolant", board): {
            "flow_lpm": 18.0 + 0.2 * jitter,
            "pressure_kpa": 310.0 + 1.5 * jitter,
            "inlet_c": 16.5 + 0.1 * jitter,
            "outlet_c": 16.5 + output_w / 900.0,
        },
        ("temperature", board): {"board_c": 24.0 + output_w / 250.0},
        ("fan", bpm.location): {"speed_rpm": 3600.0 + output_w / 4.0},
    }


def _bits(values):
    return [(name, value.hex()) for name, value in values.items()]


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    poll_interval_s=st.floats(min_value=60.0, max_value=400.0),
    sweeps=st.integers(min_value=1, max_value=4),
    starts=st.tuples(st.floats(min_value=0.0, max_value=900.0),
                     st.floats(min_value=0.0, max_value=900.0)),
    parasitic=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=20, deadline=None)
def test_block_sweep_rows_equal_scalar_rows(seed, poll_interval_s, sweeps,
                                            starts, parasitic):
    machine = BgqMachine(racks=1, rng=RngRegistry(seed),
                         poll_interval_s=poll_interval_s)
    boards = machine.node_boards()
    workload = MmpsWorkload(duration=600.0)
    for board in boards[0:8]:
        board.board.schedule(workload, starts[0])
    for board in boards[8:14]:
        board.board.schedule(workload, starts[1] + 1.0)
    boards[3].board.add_parasitic(Component.BGQ_CHIP_CORE,
                                  ConstantSignal(parasitic))
    t_end = poll_interval_s * sweeps + poll_interval_s / 2
    machine.advance_to(t_end)
    assert machine.envdb.polls_completed == sweeps

    stored = {}
    for table in machine.envdb.TABLES:
        for row in machine.envdb.range_readings(table, 0.0, t_end):
            stored[(table, row.location, row.timestamp)] = _bits(row.values)
    expected = {}
    for k in range(1, sweeps + 1):
        t = poll_interval_s * k
        for board in boards:
            rows = _expected_rows(machine.bpm(board.location), t)
            for (table, location), values in rows.items():
                expected[(table, location, t)] = _bits(values)
    assert stored == expected
