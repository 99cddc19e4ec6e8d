"""Run the dtc-sense CLI with spans around the public functions of each layer.

    python perfbench/traced_cli.py SPANS.json <dtc-sense arguments...>

The package is imported, each traced function is replaced by a timing
wrapper in every dtc_sense module that binds it (modules bind `noisy_fisher`,
`stroboscopic_trace`, `emit_table` and others with `from ... import`, so
patching only the defining module would miss those calls), then `cli.main`
runs.  Spans stay in memory and are written to SPANS.json at exit as
[name, start, end, parent] rows plus per-name counters.  A traced function
missing from the package is reported on stderr and skipped.
"""
from __future__ import annotations

import json
import os
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.missing: list[str] = []

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def span(self, name: str, fn, work=None):
        """Wrap fn in a span; `work(args, kwargs, result)` adds counters."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, _clock(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = _clock()
            if work is not None:
                for key, amount in work(args, kwargs, result).items():
                    self.add(f"{name}.{key}", amount)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        """Wrap fn in a call counter only: its time stays with the caller."""
        def wrapper(*args, **kwargs):
            self.add(f"{name}.calls", 1)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "missing": self.missing}, fh)


def _pure_cycle_bytes(args, kwargs, result):
    # 3 contractions per pair (U psi, U dpsi, dU psi; 1 without a tangent),
    # each reading and writing one complex128 statevector of 4^L entries
    engine, state = args[0], result
    L = engine.cfg.length
    passes = 1 if state.tangent is None else 3
    return {"bytes_computed": passes * L * 2 * 16 * 4 ** L}


def _lindblad_cycle_gflop(args, kwargs, result):
    # RK4 exchange half: substeps x 4 stages x one complex dim^3 matmul
    engine = args[0]
    return {"gflop_computed": engine.substeps * 4 * 8 * engine.cfg.dim ** 3
            / 1e9}


def _table_bytes(args, kwargs, result):
    out = args[2] if len(args) > 2 else kwargs["out_path"]
    size = os.path.getsize(out)
    meta = os.path.splitext(out)[0] + ".meta.txt"
    if os.path.exists(meta):
        size += os.path.getsize(meta)
    return {"bytes": size}


# (module, attribute, span name, counter hook); "Class.method" patches a
# method on the class itself, which every binding of the class shares
SPANS = [
    ("model", "observable_diagonal", "model.observable_diagonal", None),
    ("model", "build_initial_state", "model.build_initial_state", None),
    ("floquet", "FloquetEngine.__init__", "floquet.engine_init", None),
    ("floquet", "FloquetEngine.pair_gates", "floquet.pair_gates", None),
    ("floquet", "FloquetEngine.apply_cycle", "floquet.apply_cycle",
     _pure_cycle_bytes),
    ("metrology", "stroboscopic_trace", "metrology.stroboscopic_trace", None),
    ("metrology", "qfi_pure", "metrology.qfi_pure", None),
    ("metrology", "qfi_mixed", "metrology.qfi_mixed", None),
    ("lindblad", "LindbladEngine.__init__", "lindblad.engine_init", None),
    ("lindblad", "LindbladEngine.apply_cycle", "lindblad.apply_cycle",
     _lindblad_cycle_gflop),
    ("lindblad", "noisy_fisher", "lindblad.noisy_fisher", None),
    ("sweep", "evaluate_point", "sweep.evaluate_point", None),
    ("sweep", "run_sweep", "sweep.run_sweep", None),
    ("sweep", "emit_table", "sweep.emit_table", _table_bytes),
]
COUNTS = [("model", "spin_z_signs", "model.spin_z_signs")]


def install(tracer: Tracer, package) -> None:
    modules = [m for name, m in sys.modules.items()
               if name == package.__name__
               or name.startswith(package.__name__ + ".")]
    for module_name, attr, span_name, work in SPANS:
        _patch(tracer, modules, module_name, attr,
               lambda fn, n=span_name, w=work: tracer.span(n, fn, w))
    for module_name, attr, count_name in COUNTS:
        _patch(tracer, modules, module_name, attr,
               lambda fn, n=count_name: tracer.count(n, fn))


def _patch(tracer: Tracer, modules, module_name: str, attr: str, make) -> None:
    owner = sys.modules.get(f"dtc_sense.{module_name}")
    cls_name, _, method = attr.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name, None)
        if cls is None or method not in vars(cls):
            tracer.missing.append(f"{module_name}.{attr}")
            return
        setattr(cls, method, make(vars(cls)[method]))
        return
    original = getattr(owner, attr, None)
    if original is None:
        tracer.missing.append(f"{module_name}.{attr}")
        return
    wrapped = make(original)
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


# Spans that only route work to the layers below them.  Their self time
# (argument parsing, config handling, row bookkeeping and any call site
# nothing wraps) counts as uncovered, so unwrapped work shows as a gap.
DISPATCH = {"cli.main", "sweep.run_sweep", "sweep.evaluate_point"}


def summarize(dump: dict) -> dict[str, float]:
    """Per-span calls and self time (duration minus direct children), the
    counters, and `covered_s`: the self time of every span outside DISPATCH,
    import included, i.e. the time attributed to a layer."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = dict(dump["counters"])
    out["covered_s"] = 0.0
    for (name, start, end, _), children in zip(spans, child_time):
        self_s = end - start - children
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        if name not in DISPATCH:
            out["covered_s"] += self_s
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = _clock()
    import dtc_sense
    import dtc_sense.cli
    tracer.spans.append(["import", start, _clock(), -1])
    install(tracer, dtc_sense)
    for name in tracer.missing:
        print(f"traced_cli: {name} not found; not traced", file=sys.stderr)
    cli_main = tracer.span("cli.main", dtc_sense.cli.main)
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
