"""Span tracer for the sagm layers, applied from outside the library.

Run as a script, it imports ``sagm.cli``, wraps the public functions of the
layer modules and the ``cli.cmd_*`` entry points, runs the CLI with the given
arguments, restores every patched name and writes the spans and counts to
a file (see ``Tracer.write``):

    python perfbench/tracer.py TRACE -- sweep --families 4

A name is patched wherever a caller looks it up (``symsum.spectral_norm``,
``freeprobe.haar_unitary``, ...), because ``from x import f`` binds a second
reference that patching the defining module alone would miss.  Nothing under
``src/`` is edited.  Names that a later version of the library no longer has
are skipped, and their metrics read 0.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("symsum", "partitions", "linalg", "freeprobe", "igm")

# Private names traced anyway: _traceless_haar delimits the Haar rejection
# loop, so draws made inside it can be told from the one conjugating draw.
EXTRA_FUNCTIONS = ("freeprobe._traceless_haar",)
METHODS = (("freeprobe", "FreeFamily", "validate"),)
# Factories whose returned callable is traced under the given span name.
FACTORIES = {
    "symsum.perturbed_isometry_sampler": "symsum.sampler",
    "symsum.exact_isometry_sampler": "symsum.sampler",
}


class Tracer:
    """In-memory span and counter store plus the patches that feed it.

    Span i has name ``names[name_ids[i]]``, start and end ``starts[i]`` and
    ``ends[i]`` from ``time.perf_counter``, and the index of its parent span
    in ``parents[i]`` (-1 for none).  Flat arrays keep the per-call cost and
    the final write small.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None,
             returns: Optional[str] = None) -> Callable:
        """``fn`` recording one span per call; ``after(tracer, args, kwargs,
        result)`` feeds counters, and ``returns`` names the span of a returned callable."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            if returns is not None:
                result = self.wrap(returns, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every traced function wherever a sagm module binds it."""
        import sagm
        from sagm import cli

        layers = {layer: getattr(sagm, layer) for layer in LAYERS}
        targets: Dict[int, Tuple[str, Callable]] = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        for attr, obj in vars(cli).items():
            if attr.startswith("cmd_") and inspect.isfunction(obj):
                targets[id(obj)] = (f"cli.{attr}", obj)
        for qualified in EXTRA_FUNCTIONS:
            layer, attr = qualified.split(".")
            obj = getattr(layers[layer], attr, None)
            if inspect.isfunction(obj):
                targets[id(obj)] = (qualified, obj)

        wrappers = {}
        for key, (name, fn) in targets.items():
            wrappers[key] = self.wrap(name, fn, AFTER.get(name), FACTORIES.get(name))
        for mod in list(layers.values()) + [cli]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, attr, wrappers[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(layers[layer], cls_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._set(cls, method, self.wrap(f"{layer}.{method}", fn))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """One JSON header line (names, counts, span count), then the raw
        bytes of name_ids, parents, starts and ends in that order."""
        header = {"names": self.names, "counts": self.counts, "spans": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                fh.write(arr.tobytes())


def read_trace(path) -> Dict:
    """Inverse of ``Tracer.write``: names, counts and the four span arrays."""
    with open(path, "rb") as fh:
        trace = json.loads(fh.readline())
        n = trace["spans"]
        for key, code in (("name_ids", "i"), ("parents", "i"), ("starts", "d"), ("ends", "d")):
            arr = array(code)
            arr.frombytes(fh.read(n * arr.itemsize))
            trace[key] = arr
    return trace


# -- counters recorded after a call returns ---------------------------------

def _bell(d: int) -> int:
    """Bell number, computed here so the count neither adds a span nor
    depends on ``partitions.bell_number`` staying in the library."""
    row = [1]
    for _ in range(d):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _after_e_wo(tracer: Tracer, args, kwargs, result) -> None:
    d = args[1] if len(args) > 1 else kwargs["d"]
    tracer.count("symsum.e_wo.partitions", _bell(int(d)))


def _after_spectral_norm(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("linalg.spectral_norm.iterations", getattr(result, "iterations", 0))
    if not getattr(result, "converged", True):
        tracer.count("linalg.spectral_norm.unconverged")


AFTER = {
    "symsum.e_wo": _after_e_wo,
    "linalg.spectral_norm": _after_spectral_norm,
}


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE -- <sagm cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    from sagm import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.write(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
