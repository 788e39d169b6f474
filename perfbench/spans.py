"""Timers for traced runs: wall time and call counts of module functions
and class methods, by patching the name their callers look up."""

from __future__ import annotations

import time


class Spans:
    """Use as a context manager; every patched name is restored on exit."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._patched: list = []

    def wrap(self, owner, name: str, key: str, on_result=None) -> None:
        original = getattr(owner, name)

        def timed(*args, **kwargs):
            began = time.perf_counter()
            result = original(*args, **kwargs)
            self.seconds[key] = self.seconds.get(key, 0.0) + time.perf_counter() - began
            self.calls[key] = self.calls.get(key, 0) + 1
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, name, timed)
        self._patched.append((owner, name, original))

    def __enter__(self) -> "Spans":
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
