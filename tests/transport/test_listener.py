"""The listener's worker pool at rest: idle workers block, stop still ends them."""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro.qos.admission import AdmissionQueue
from repro.transport.listener import Binding, Listener


class _Unused(Binding):
    """A binding no connection ever reaches in these tests."""


def test_idle_workers_block_and_stop_joins_them(monkeypatch):
    entered: Counter[str] = Counter()
    lock = threading.Lock()
    take = AdmissionQueue.take

    def counting_take(self, timeout):
        with lock:
            entered[threading.current_thread().name] += 1
        return take(self, timeout)

    monkeypatch.setattr(AdmissionQueue, "take", counting_take)
    listener = Listener("idle", timeout=5.0, workers=64)
    listener.listen("127.0.0.1", 0, _Unused())
    threads = list(listener._threads)
    time.sleep(1.0)
    with lock:
        counts = dict(entered)
    listener.stop()

    assert len(counts) == 64
    assert max(counts.values()) == 1
    assert not any(thread.is_alive() for thread in threads)
