import pytest

from perfbench import hostspeed
from perfbench.hostspeed import Probe, normalise


def probe(wall, cpu=None):
    taken = Probe.__new__(Probe)
    taken.wall = wall
    taken.cpu = wall if cpu is None else cpu
    return taken


def test_a_host_at_reference_speed_reads_the_stopwatch():
    ref = hostspeed.REFERENCE_S
    assert normalise(3.0, probe(ref), probe(ref)) == pytest.approx(3.0)


def test_a_uniformly_slower_host_reads_the_same():
    ref = hostspeed.REFERENCE_S
    fast = normalise(2.0, probe(ref), probe(ref))
    slow = normalise(2.0 * 1.6, probe(1.6 * ref), probe(1.6 * ref))
    assert slow == pytest.approx(fast)


def test_the_two_bracketing_probes_are_averaged():
    ref = hostspeed.REFERENCE_S
    # Speed changed mid-operation: the mean of before and after is 1.5x.
    assert normalise(3.0, probe(ref), probe(2.0 * ref)) == pytest.approx(2.0)


def test_cpu_times_scale_by_the_probes_cpu():
    ref = hostspeed.REFERENCE_S
    got = normalise(4.0, probe(ref, cpu=2.0 * ref), probe(ref, cpu=2.0 * ref), "cpu")
    assert got == pytest.approx(2.0)


def test_the_reference_is_fixed_work():
    assert hostspeed.reference() == hostspeed.reference()
    taken = Probe()
    assert taken.wall > 0 and taken.cpu > 0
