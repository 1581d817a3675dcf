"""Client-side invocation futures over one result array per pack.

The SPI client dispatcher "extract[s] multiple services response data
from one SOAP message and return[s] them to the corresponding client
methods".  It does so by filling one :class:`ResultArray` per pack, in
call order, in one pass; each call's :class:`InvocationFuture` is a view
onto its slot, so a pack of M calls costs one completion event, not M.

A slot holds the call's value, or the exception it failed with (a SOAP
fault, a transport error, or a :class:`~repro.errors.PackError`).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import InvocationError


class ResultArray:
    """One pack's results: ``size`` slots, filled at once, one event."""

    __slots__ = ("size", "slots", "_event", "_lock", "_callbacks")

    def __init__(self, size: int = 0) -> None:
        self.size = size
        self.slots: list[Any] | None = None  # None until filled
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: list[tuple[Callable, "InvocationFuture"]] = []

    def add(self, operation: str, request_id: str | None = None) -> "InvocationFuture":
        """Reserve the next slot; returns the future that views it."""
        index = self.size
        self.size += 1
        return InvocationFuture(operation, request_id, results=self, index=index)

    def fill(self, slots: list[Any]) -> None:
        """Complete the pack with every slot's outcome, in call order."""
        with self._lock:
            if self.slots is not None:
                raise InvocationError("results resolved twice")
            self.slots = slots
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback, future in callbacks:
            callback(future)

    def fail(self, error: BaseException) -> None:
        """Complete every slot with ``error``."""
        self.fill([error] * self.size)

    def wait(self, timeout: float | None) -> list[Any] | None:
        """The filled slots, or None if ``timeout`` elapses first."""
        slots = self.slots  # repro: disable=lock-discipline — one atomic load; fill publishes the list before it sets the Event
        if slots is None and self._event.wait(timeout):
            slots = self.slots
        return slots


def settle(futures: list["InvocationFuture"], slots: list[Any]) -> None:
    """Complete ``futures`` from ``slots`` (same order): one fill per
    result array they view; an array already completed is left alone."""
    filled: dict[ResultArray, list[Any]] = {}
    for future, slot in zip(futures, slots):
        results = future._results
        row = filled.get(results)
        if row is None:
            row = filled[results] = [None] * results.size
        row[future._index] = slot
    for results, row in filled.items():
        if results.slots is None:
            results.fill(row)


def unwrap(slots: list[Any]) -> list[Any]:
    """The slots' values in order; the first failure propagates."""
    for slot in slots:
        if isinstance(slot, BaseException):
            raise slot
    return slots


class InvocationFuture:
    """Result handle for one service invocation: a view onto one slot.

    Constructed bare, a future owns a one-slot :class:`ResultArray`.
    ``result()`` re-raises whatever failure the invocation produced
    (a :class:`~repro.errors.SoapFaultError` for server faults,
    transport/HTTP errors otherwise).
    """

    __slots__ = ("operation", "request_id", "_results", "_index")

    def __init__(
        self,
        operation: str,
        request_id: str | None = None,
        *,
        results: ResultArray | None = None,
        index: int = 0,
    ) -> None:
        self.operation = operation
        self.request_id = request_id
        self._results = results if results is not None else ResultArray(1)
        self._index = index

    def resolve(self, value: Any) -> None:
        """Complete a bare future with a result value."""
        self._results.fill([value])

    def fail(self, error: BaseException) -> None:
        """Complete a bare future with an error."""
        self._results.fill([error])

    def done(self) -> bool:
        """True once resolved or failed."""
        return self._results.slots is not None

    def result(self, timeout: float | None = None) -> Any:
        """The invocation's value; re-raises its failure."""
        slot = self._slot(timeout)
        if isinstance(slot, BaseException):
            raise slot
        return slot

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The failure, or None on success; waits up to ``timeout``."""
        slot = self._slot(timeout)
        return slot if isinstance(slot, BaseException) else None

    def add_done_callback(self, callback: Callable[["InvocationFuture"], None]) -> None:
        """Run ``callback(self)`` on completion (immediately if done)."""
        results = self._results
        with results._lock:
            if results.slots is None:
                results._callbacks.append((callback, self))
                return
        callback(self)

    def _slot(self, timeout: float | None) -> Any:
        slots = self._results.wait(timeout)
        if slots is None:
            raise InvocationError(
                f"invocation of '{self.operation}' did not complete in time"
            )
        return slots[self._index]


def wait_all(futures: list[InvocationFuture], timeout: float | None = None) -> list[Any]:
    """Results of every future, in order; first failure propagates."""
    return [future.result(timeout) for future in futures]
