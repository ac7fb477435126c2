"""A stand-in for a draw helper's one-worker executor, driven by hand.

:class:`mlenkf.rng.Helper` submits each published unit to the executor it
is handed, claims a unit the executor has not started by cancelling its
future, and waits on the future of a unit the executor has started.  The
stand-in runs nothing on another thread: its worker starts or fills a
unit only when a test says so, as the unit is submitted (``at_submit``)
or later (:meth:`StandInPool.start`, :meth:`StandInPool.fill`), so every
handoff order between the worker and the reader is made on purpose.
Unlike a real worker, it may take units out of submit order and hold
several started at once: the helper must not depend on either.

``log`` records each handoff in order: ``("reader", i)`` when the reader
claims unit i (it fills the unit at once), ``("wait", i)`` when the reader
waits on a unit that the worker has started, and ``("worker", i)`` when
the worker has filled unit i.  A wait finishes the worker's fill, as a
real worker would finish it while the reader waits.
"""


# what the worker does with unit i as it is submitted: "fill" it, "start"
# it (finished when the reader waits on it), or leave it (None) to the reader
SCHEDULES = {
    "worker": lambda i: "fill",
    "reader": lambda i: None,
    "mixed": lambda i: ("fill", "start", None)[i % 3],
}


class Unit:
    """The future of one submitted unit."""

    def __init__(self, pool, index, fill):
        self.pool, self.index, self.fill = pool, index, fill
        self.state = "pending"  # then "running", "finished" or "cancelled"
        self.error = None

    def done(self):
        return self.state in ("finished", "cancelled")

    def cancel(self):
        if self.state == "pending":
            self.state = "cancelled"
            self.pool.log.append(("reader", self.index))
        return self.state == "cancelled"

    def result(self):
        # a reader waits only on a unit that it could not claim
        assert self.state in ("running", "finished"), f"unit {self.index} is {self.state}"
        if self.state == "running":
            self.pool.log.append(("wait", self.index))
            self.pool._finish(self)
        if self.error is not None:
            raise self.error


class StandInPool:
    """Executor of a :class:`~mlenkf.rng.Helper` whose worker fills a unit
    only when told; ``max_workers`` lets it stand in for the
    ``ThreadPoolExecutor`` that ``estimate_mse`` opens.  Leaving its
    ``with`` block fills every unit still pending or started, as a real
    executor's shutdown does."""

    def __init__(self, at_submit=None, max_workers=1):
        assert max_workers == 1
        self.at_submit = at_submit or (lambda i: None)
        self.units, self.log = [], []
        self.filling = False  # whether the worker is filling a unit right now
        self.entered = self.exited = False

    def __enter__(self):
        self.entered = True
        return self

    def __exit__(self, *exc):
        self.fill(*(u.index for u in self.units if u.state in ("pending", "running")))
        self.exited = True
        return False

    def submit(self, fill):
        unit = Unit(self, len(self.units), fill)
        self.units.append(unit)
        action = self.at_submit(unit.index)
        if action is not None:
            getattr(self, action)(unit.index)
        return unit

    def pending(self):
        """Indices of the units that nobody has started or claimed."""
        return [u.index for u in self.units if u.state == "pending"]

    def start(self, *indices):
        """The worker picks up these pending units, and fills none yet."""
        for i in indices:
            assert self.units[i].state == "pending"
            self.units[i].state = "running"

    def fill(self, *indices):
        """The worker fills these units, pending or started."""
        for i in indices:
            if self.units[i].state == "pending":
                self.start(i)
            self._finish(self.units[i])

    def _finish(self, unit):
        assert unit.state == "running", f"unit {unit.index} is {unit.state}"
        self.filling = True
        try:
            unit.fill()
        except Exception as exc:  # raised on the reader, by result()
            unit.error = exc
        finally:
            self.filling = False
        unit.state = "finished"
        self.log.append(("worker", unit.index))

    def who(self):
        """``"worker"`` or ``"reader"`` per unit in submit order, ``None`` for
        a unit nobody filled yet."""
        return [{"finished": "worker", "cancelled": "reader"}.get(u.state) for u in self.units]
