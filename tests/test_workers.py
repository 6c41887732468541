import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import dgn
from dgn import workers
from dgn.errors import NonFiniteOutput, ParseError


@pytest.mark.parametrize("count", [0, 1, 2, 17])
def test_ordered_map_equals_the_loop(cpus, count):
    offset = 5  # a closure: fn need not pickle

    def fn(x):
        return [x * x + offset]

    assert workers.ordered_map(fn, range(count)) == [fn(x) for x in range(count)]


def test_ordered_map_runs_in_forked_workers_only_with_more_than_one_cpu(cpus):
    pids = set(workers.ordered_map(lambda _: os.getpid(), range(8)))
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids


def _thread_names() -> list[str]:
    names = []
    for comm in Path("/proc/self/task").glob("*/comm"):
        try:
            names.append(comm.read_text().strip())
        except FileNotFoundError:  # the thread has exited since the listing
            pass
    return names


def test_the_process_that_forks_the_workers_runs_one_thread(cpus):
    # forking a multi-threaded process is deprecated from Python 3.12;
    # conftest pins BLAS to one thread before numpy loads
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("no /proc/self/status to read the thread count from")
    # an earlier test's pool may have joined its manager thread before the thread
    # left the kernel's list of this process's threads: wait up to 5 s for it to go
    deadline = time.monotonic() + 5.0
    while True:
        threads = [line.split()[1] for line in status.read_text().splitlines()
                   if line.startswith("Threads:")]
        if threads == ["1"] or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    assert threads == ["1"], (f"the process's threads: {_thread_names()}, of which "
                              f"Python's: {[t.name for t in threading.enumerate()]}")
    assert workers.ordered_map(abs, range(-2, 2)) == [2, 1, 0, 1]


def test_ordered_map_raises_the_first_failure_in_item_order(cpus):
    def fn(x):
        if x == 13:
            raise NonFiniteOutput("late")
        if x == 3:
            time.sleep(0.2)  # so that item 13 fails first in time
            raise ParseError("scene.dgn", 3, "early")
        return x

    with pytest.raises(ParseError) as exc:
        workers.ordered_map(fn, range(16))
    assert (exc.value.path, exc.value.line, exc.value.reason) == ("scene.dgn", 3, "early")
    assert workers._job is None


def test_ordered_map_raises_when_a_worker_dies():
    # a worker killed (as for memory) ends the map instead of leaving it waiting
    src = os.path.dirname(os.path.dirname(dgn.__file__))
    probe = ("import os, signal\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "from dgn.workers import ordered_map\n"
             "ordered_map(lambda x: x == 1 and os.kill(os.getpid(), signal.SIGKILL), range(4))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.strip().splitlines()[-1].startswith("dgn.errors.WorkerDied: ")
