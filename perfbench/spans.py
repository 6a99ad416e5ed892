"""Outside-in span tracer for the realroots benchmark.

`Tracer.install` wraps the public functions of every realroots module, plus
`Polynomial.__mul__`/`__divmod__` and each registered suite runner, and
patches every place that holds a reference to one of them: module globals
(including names brought in with `from .x import y`), class attributes,
module-level containers such as `suites.SUITES`, and the closure cells and
defaults of the library's functions (the `_closure_suite(tr.diamond)`
runners keep their product in a cell).  `uninstall` puts the originals back.

A span is (name, start, end, parent, request id).  Spans live in flat arrays
in memory while the workload runs; `write` dumps them after the run and
`summary` derives per-name call counts, inclusive time (outermost spans of a
name only, so recursion is not double counted) and self time (span time
minus the time of its direct child spans).
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from pathlib import Path
from types import FunctionType, ModuleType

# modules whose public functions are wrapped, by short span prefix
LAYER_MODULES = (
    "polynomial",
    "roots",
    "interlacing",
    "transforms",
    "posets",
    "ferrers",
    "generators",
    "suites",
    "cli",
)
POLYNOMIAL_METHODS = {"__mul__": "polynomial.mul", "__divmod__": "polynomial.divmod"}


def _isolate_exact(result) -> tuple[int, int]:
    return sum(1 for loc in result if loc.is_exact), len(result)


def _is_true(result) -> tuple[int, int]:
    return (1 if result else 0), 1


def _is_none_relation(result) -> tuple[int, int]:
    return (1 if result.relation.value == "none" else 0), 1


# span name -> function of the return value giving (hits, total)
OBSERVERS = {
    "roots.isolate_roots": _isolate_exact,
    "interlacing.interlaces": _is_true,
    "interlacing.alternates": _is_none_relation,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.observed: dict[str, list[int]] = {}
        self.current_request = -1
        self._stack = [-1]
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def begin_request(self) -> None:
        """Spans recorded from now on belong to the next request id."""
        self.current_request += 1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: FunctionType):
        nid = self._name_id(name)
        names, parents, reqs = self.span_name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def enter() -> int:
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            reqs.append(tracer.current_request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def leave(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per step, so the time is charged where items are made
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(idx)
                    yield item

        elif name in OBSERVERS:
            observe = OBSERVERS[name]
            tally = self.observed.setdefault(name, [0, 0])

            def traced(*args, **kwargs):
                idx = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(idx)
                hits, total = observe(result)
                tally[0] += hits
                tally[1] += total
                return result

        else:

            def traced(*args, **kwargs):
                idx = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap and patch; `modules` maps short layer names (and "package")
        to the imported realroots modules."""
        wrappers: dict[FunctionType, FunctionType] = {}

        def add(name: str, fn: FunctionType) -> None:
            if fn not in wrappers:
                wrappers[fn] = self.wrap(name, fn)

        for short in LAYER_MODULES:
            mod = modules[short]
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and isinstance(obj, FunctionType)
                if public and obj.__module__ == mod.__name__:
                    add(f"{short}.{attr}", obj)
        poly_cls = modules["polynomial"].Polynomial
        for attr, name in POLYNOMIAL_METHODS.items():
            add(name, vars(poly_cls)[attr])
        for suite, entry in modules["suites"].SUITES.items():
            add(f"suites.{suite}", entry[0])

        def swap(value):
            if isinstance(value, FunctionType):
                return wrappers.get(value, value)
            if isinstance(value, tuple):
                new = tuple(swap(v) for v in value)
                return new if any(a is not b for a, b in zip(new, value)) else value
            return value

        # every place that may hold a reference: (setter, target, key, value)
        slots = []
        for mod in {id(m): m for m in modules.values()}.values():
            for attr, obj in vars(mod).items():
                slots.append((setattr, mod, attr, obj))
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    slots += [(setattr, obj, k, v) for k, v in vars(obj).items()]
                elif isinstance(obj, dict):
                    slots += [(dict.__setitem__, obj, k, v) for k, v in obj.items()]
        functions = [
            f
            for *_, value in slots
            for f in (value if isinstance(value, tuple) else (value,))
            if isinstance(f, FunctionType)
        ]
        for fn in {id(f): f for f in functions}.values():
            cells = _filled(fn.__closure__ or ())
            slots += [(_set_cell, cell, None, value) for cell, value in cells]
            slots.append((setattr, fn, "__defaults__", fn.__defaults__))
        for setter, target, key, value in slots:
            new = swap(value)
            if new is not value:
                self._undo.append((setter, target, key, value))
                setter(target, key, new)

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, value = self._undo.pop()
            setter(target, key, value)

    # -- results ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_name)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, incl_s (outermost spans only) and self_s."""
        n = len(self.span_name)
        names, parents = self.span_name, self.parent
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        calls = [0] * k
        incl = [0.0] * k
        self_s = [0.0] * k
        open_count = [0] * k
        path: list[int] = []  # open ancestors of the current span
        for i in range(n):
            p = parents[i]
            while path and path[-1] != p:
                open_count[names[path.pop()]] -= 1
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            if open_count[nid] == 0:
                incl[nid] += dur[i]
            open_count[nid] += 1
            path.append(i)
        return {
            name: {"calls": calls[i], "incl_s": incl[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }

    def durations(self, name: str) -> list[tuple[int, float]]:
        """(request id, seconds) of every span with this name."""
        nid = self._ids.get(name)
        return [
            (self.request[i], self.end[i] - self.start[i])
            for i in range(len(self.span_name))
            if self.span_name[i] == nid
        ]

    def write(self, path: Path, meta: dict) -> None:
        """One JSON header line (with `meta`, e.g. the environment), then the
        raw span arrays in header order."""
        arrays = {
            "name": self.span_name,
            "parent": self.parent,
            "request": self.request,
            "start": self.start,
            "end": self.end,
        }
        header = {
            "meta": meta,
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [[key, arr.typecode, arr.itemsize] for key, arr in arrays.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in arrays.values():
                arr.tofile(handle)


class Recorder(Tracer):
    """Patches like `Tracer` but, instead of spans, records the arguments and
    answer of every call to the functions named in `names` (span names such
    as "roots.is_real_rooted"); all other functions are left alone."""

    def __init__(self, names) -> None:
        super().__init__()
        self.wanted = frozenset(names)
        self.calls: list[tuple[str, tuple, dict, object]] = []

    def wrap(self, name: str, fn: FunctionType):
        if name not in self.wanted:
            return fn
        calls = self.calls

        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, kwargs, result))
            return result

        recorded.__name__ = fn.__name__
        recorded.__qualname__ = fn.__qualname__
        recorded.__wrapped__ = fn
        return recorded


def read_spans(path: Path) -> dict:
    """Inverse of `Tracer.write`: the header plus one array per field."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        out = {"meta": header["meta"], "names": header["names"]}
        for key, typecode, _ in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(handle, header["spans"])
            out[key] = arr
    return out


def _set_cell(cell, _key, value) -> None:
    cell.cell_contents = value


def _filled(cells):
    for cell in cells:
        try:
            yield cell, cell.cell_contents
        except ValueError:  # a cell whose variable is not bound yet
            pass
