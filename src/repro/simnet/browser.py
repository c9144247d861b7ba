"""Page-load model: main document plus embedded objects, bounded parallelism.

PLT (page load time) is the metric the whole paper optimizes.  Here a page
load is: fetch the main document, then fetch every embedded object with at
most ``max_parallel`` in flight (browsers' classic 6-connections-per-host
rule), PLT being the completion time of the last object.

The *fetcher* is a callable ``url -> process returning FetchResult`` — a
plain transport, or C-Saw's proxy logic deciding per-URL how to fetch (the
paper routes each embedded CDN request through its own measurement, which
is how the pilot study caught CDN blocking).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, List

from .engine import Environment

__all__ = ["PageLoadResult", "load_page", "Semaphore"]


class Semaphore:
    """Counting semaphore for the event kernel (FIFO waiters)."""

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._active = 0
        self._waiters = deque()

    def acquire(self):
        event = self.env.event()
        if self._active < self.capacity:
            self._active += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            if self._active <= 0:
                raise RuntimeError("semaphore released too many times")
            self._active -= 1


@dataclass
class PageLoadResult:
    """Outcome of loading a full page (document + objects)."""

    url: str
    started: float
    finished: float
    main: "object"  # FetchResult
    objects: List["object"] = field(default_factory=list)

    @property
    def plt(self) -> float:
        return self.finished - self.started

    @property
    def ok(self) -> bool:
        return self.main is not None and self.main.ok

    def __repr__(self) -> str:
        return (
            f"PageLoadResult({self.url!r}, plt={self.plt:.3f}s, ok={self.ok}, "
            f"objects={len(self.objects)})"
        )


def load_page(
    env: Environment,
    fetcher: Callable[[str], Generator],
    url: str,
    max_parallel: int = 6,
) -> Generator:
    """Process: load ``url`` and its embedded objects; returns PageLoadResult.

    Embedded objects come from the main response's page model.  Object
    failures do not fail the load (browsers render around broken images);
    they are recorded in the result.
    """
    started = env.now
    main = yield env.process(fetcher(url))
    page = main.response.page if (main.response is not None) else None
    if main.failed or page is None or not page.embedded:
        return PageLoadResult(
            url=url, started=started, finished=env.now, main=main
        )

    semaphore = Semaphore(env, max_parallel)

    def fetch_object(ref):
        yield semaphore.acquire()
        try:
            result = yield env.process(fetcher(ref.url))
        finally:
            semaphore.release()
        return result

    workers = [env.process(fetch_object(ref)) for ref in page.embedded]
    gathered = yield env.all_of(workers)
    objects = [gathered[worker] for worker in workers]
    return PageLoadResult(
        url=url,
        started=started,
        finished=env.now,
        main=main,
        objects=objects,
    )
