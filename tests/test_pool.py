"""lab._pool_map: the connectivity scan and continuity on a fork pool give the
bits of the one-CPU run, raise its errors, and leave no process behind."""

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np
import pytest

from henonlab import cli, lab
from henonlab.errors import PreconditionError, WorkerError

PARENT = os.getpid()
_connectivity_cell = lab._connectivity_cell
pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the pool runs only where this process may use two or more CPUs")


@contextmanager
def one_cpu():
    """Pin this process to one of its CPUs, so that lab._pool_map runs serially."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@contextmanager
def deadline(seconds):
    """Fail a call that takes longer than ``seconds`` instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _fail_at_1_and_3(x):
    if x == 1:
        time.sleep(0.3)  # item 3 fails first in time, item 1 first in input order
    if x in (1, 3):
        raise PreconditionError(f"item {x} failed")
    return x


def _exit_at_0(x):
    if x == 0 and os.getpid() != PARENT:  # the pool takes the head, this process the tail
        os._exit(7)
    time.sleep(0.05)
    return x


def _sleep(x):
    time.sleep(0.5)
    return x


def _pid(x):
    time.sleep(0.1)
    return os.getpid()


def _killed_in_worker(*args):
    if os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer ends a process
    return _connectivity_cell(*args)


def _cell_bits(cells):
    flat = [c for row in cells for c in row]
    gaps = np.array([(c.final_gap, c.separation) for c in flat])
    return [(c.a, c.verdict) for c in flat], gaps.view(np.uint64).tolist()


def test_items_run_here_and_in_workers_in_input_order():
    assert lab._pool_map(abs, range(-5, 0)) == [5, 4, 3, 2, 1]
    pids = lab._pool_map(_pid, range(4))
    assert pids[-1] == PARENT and pids[0] != PARENT
    with one_cpu():
        assert lab._pool_map(_pid, range(4)) == [PARENT] * 4
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("pq,t,a,res", [((1, 2), 0.1, 0.2, 9), ((1, 3), 0.05, 0.2, 5)])
def test_connectivity_scan_cells_are_the_one_cpu_bits(pq, t, a, res):
    # the README grid at q = 2, and a q = 3 grid, where only -a is a twin
    args = (pq, t, (-a, a, -a, a), res, 256, 12)
    pooled = _cell_bits(lab.connectivity_scan(*args))
    assert multiprocessing.active_children() == []
    with one_cpu():
        serial = _cell_bits(lab.connectivity_scan(*args))
    assert pooled == serial
    assert any(v == "CONNECTED-BY-CONSTRUCTION" for _, v in pooled[0])


def test_continuity_distances_are_the_one_cpu_bits():
    args = ((1, 1), 0.05, [0.2, 0.1], 200, 256, 12, 8, 8)
    pooled = lab.continuity_experiment(*args)
    assert multiprocessing.active_children() == []
    with one_cpu():
        serial = lab.continuity_experiment(*args)
    for p, s in zip(pooled, serial):
        assert np.array(p.distances).view(np.uint64).tolist() == \
            np.array(s.distances).view(np.uint64).tolist()
        assert p.meta == s.meta


def test_the_first_failing_item_in_input_order_raises_the_serial_error():
    with pytest.raises(PreconditionError) as pooled:
        lab._pool_map(_fail_at_1_and_3, range(5))
    assert multiprocessing.active_children() == []
    with one_cpu(), pytest.raises(PreconditionError) as serial:
        lab._pool_map(_fail_at_1_and_3, range(5))
    assert str(pooled.value) == str(serial.value) == "item 1 failed"


def test_a_refusal_raised_in_the_workers_is_the_serial_one():
    # at resolution 6 the t=0.1 slice has the t=0 boundary cells and the t=0.05
    # slice has none: the serial run refuses t=0.1 first, in the worker here
    args = ((1, 2), 0.3, [0.1, 0.05], 6, 256, 12, 8, 8)
    with pytest.raises(PreconditionError) as pooled:
        lab.continuity_experiment(*args)
    assert multiprocessing.active_children() == []
    with one_cpu(), pytest.raises(PreconditionError) as serial:
        lab.continuity_experiment(*args)
    assert str(pooled.value) == str(serial.value) == (
        "the J+ slices at t=0.1 and t=0 have the same boundary cells at resolution 6: raise --res")


def test_a_worker_that_exits_raises_instead_of_hanging():
    t0 = time.perf_counter()
    with deadline(30), pytest.raises(WorkerError, match="died with exit code 7$") as exc:
        lab._pool_map(_exit_at_0, range(6))
    assert isinstance(exc.value.__cause__, BrokenProcessPool)
    assert time.perf_counter() - t0 < 10
    assert multiprocessing.active_children() == []


def test_a_base_exception_in_the_parent_joins_every_worker():
    # the benchmark's time limit raises a BaseException from SIGALRM
    class Expired(BaseException):
        pass

    def expire(signum, frame):
        raise Expired()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 0.1)
    try:
        with pytest.raises(Expired):
            lab._pool_map(_sleep, range(8))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_cli_reports_a_dead_worker_in_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(lab, "_connectivity_cell", _killed_in_worker)
    argv = ["connectivity-scan", "--pq=1/3", "--t=0.05", "--a=0.2", "--res=3",
            "--out", str(tmp_path / "x")]
    with deadline(30):
        assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "worker failure: a worker process died with exit code -9\n"
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []
