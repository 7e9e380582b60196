"""Engine-free session double shared by the serving-layer tests.

:class:`StubSession` has the surface the scheduler touches on a
:class:`~repro.serve.session.GraphSession` — ``digest``, ``config``,
``tracer``, ``fresh()`` and ``run_batch`` with its full signature —
and answers every source with a :class:`StubResult`.
"""

import threading
import time
from collections import namedtuple

from repro.core.config import BFSConfig

#: One stub answer.  It compares equal to ``("result", root)`` and
#: carries ``root``, the field poison detection reads.
StubResult = namedtuple("StubResult", ["tag", "root"], defaults=("result", None))


class StubSession:
    """Session double with injectable latency and failures.

    ``release`` (a threading.Event) blocks every batch inside the
    executor until set — the knob the concurrency-edge tests use to
    observe the scheduler mid-batch; ``delay_s`` sleeps per batch;
    ``fail_times`` makes the next N batches raise ``failure``.
    ``fresh()`` returns ``fresh_session`` (or a clean stub), mirroring
    :meth:`~repro.serve.session.GraphSession.fresh`.  ``cancel`` is
    accepted but never checked: a stub batch is one BFS level.
    """

    digest = "stub-digest"
    config = BFSConfig(label="stub")
    tracer = None

    def __init__(
        self,
        release: threading.Event | None = None,
        fail_times: int = 0,
        delay_s: float = 0.0,
        fresh_session=None,
        failure: type[Exception] = RuntimeError,
    ) -> None:
        self.release = release
        self.fail_times = fail_times
        self.delay_s = delay_s
        self.fresh_session = fresh_session
        self.failure = failure
        self.batches: list[list[int]] = []
        self.fresh_calls = 0

    def fresh(self):
        self.fresh_calls += 1
        if self.fresh_session is not None:
            return self.fresh_session
        return StubSession()

    def run_batch(
        self, sources, validate=False, trace_ids=None, batch_id=None,
        cancel=None,
    ):
        if self.release is not None:
            assert self.release.wait(timeout=30)
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.fail_times > 0:
            self.fail_times -= 1
            raise self.failure("stub batch failure")
        self.batches.append(list(sources))
        return [StubResult(root=int(s)) for s in sources]
