"""Call counts and span times for the public functions of hasqoe's modules.

``install`` wraps every public function that a traced module defines and
rebinds each module attribute that refers to it, so import sites such as
``hasqoe.cli.extract_features`` or ``hasqoe.evaluation.predict`` are
traced too.  A span's self time is its duration minus the durations of
the traced spans it called.  The per-segment helpers only count calls,
because timing each of them would cost more than the work they do.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("io", "model", "fitting", "baselines", "evaluation", "synth", "cli")
COUNT_ONLY = frozenset({"model.classify_switch", "model.bin_quality", "model.bin_interruption"})
CPU_TIMED = frozenset({"fitting.lstsq_min_norm"})


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "max_s", "cpu_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = self.self_s = self.max_s = self.cpu_s = 0.0
        self.errors = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._children: list[float] = []  # time spent in traced callees, per open span

    def counted(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        children = self._children
        cpu = key in CPU_TIMED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            cpu_start = time.process_time() if cpu else 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children.pop()
                stat.max_s = max(stat.max_s, elapsed)
                if cpu:
                    stat.cpu_s += time.process_time() - cpu_start
                if children:
                    children[-1] += elapsed

        return wrapper


def install() -> Tracer:
    """Wrap the traced modules' public functions; hasqoe must already be imported."""
    tracer = Tracer()
    wrappers = {}
    for name in MODULES:
        module = sys.modules[f"hasqoe.{name}"]
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            key = f"{name}.{attr}"
            wrap = tracer.counted if key in COUNT_ONLY else tracer.timed
            wrappers[value] = wrap(key, value)
    for module_name, module in list(sys.modules.items()):
        if module_name != "hasqoe" and not module_name.startswith("hasqoe."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    return tracer
