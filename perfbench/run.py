"""Benchmark of the xmathml converter, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|large|shared --seed N \\
        --seconds S --trace 0|1

One process, one thread, a closed loop with one caller: each formula is
converted (XMath text -> parallel MathML text) and its output checked the
way ``--to check`` does, then the next formula follows. Inputs come from
the seed; the program sees only XMath text. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment, the seed and what each figure is based on. README.md in this
directory defines every workload and metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Spawns of a fresh interpreter behind setup_s (after one unmeasured
#: spawn that fills the bytecode cache); the median is reported.
SETUP_SPAWNS = 21
#: peak_mem_kib is the median peak over this many largest-output formulas,
#: so it follows the program rather than the seed's few biggest draws.
PEAK_FORMULAS = 21
#: A tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "convert_us.p50": "us",
    "convert_us.tail": "us",
    "formulas_per_s": "1/s",
    "check_us.p50": "us",
    "check_us.tail": "us",
    "setup_s": "s",
    "peak_mem_kib": "KiB",
}

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import xmathml
table = xmathml.MeaningTable.default()
spec = json.loads(sys.stdin.read())
doc = xmathml.parse_xmath(spec["text"])
math = xmathml.build_parallel(doc, tex=spec["tex"], display=spec["display"], table=table)
mode = xmathml.EntityMode.NUMERIC_REFS if spec["numeric"] else xmathml.EntityMode.UTF8
sys.stdout.write(xmathml.serialize_mathml(math, xmathml.SerializeOptions(entity_mode=mode)))
"""


def _import_program():
    """Import xmathml from this checkout's src/, never from elsewhere."""
    package = SRC / "xmathml"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import xmathml

    if Path(xmathml.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported xmathml from {xmathml.__file__}, not {package}")
    return xmathml


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest rank with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND  # 1-based nearest rank
    if rank < 1:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Run:
    def __init__(self, xm, workload):
        import layers

        self.xm = xm
        self.layers = layers
        self.workload = workload
        self.table = xm.MeaningTable.default()
        mode = xm.EntityMode.NUMERIC_REFS if workload.numeric_entities else xm.EntityMode.UTF8
        self.opts = xm.SerializeOptions(entity_mode=mode)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs: these make correct false
        self.failures: dict[str, int] = {}
        self.outputs: dict[int, str] = {}
        self.check_ok: dict[int, bool] = {}
        self.counts: dict[str, float] = {}
        self.digest = ""

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1

    # -- verification, outside every timed region --------------------------

    def verify(self) -> None:
        """Convert and check every input once; classify each operation.

        Valid formulas must convert, check clean in memory, compose to
        the same bytes layer by layer, and check clean after re-parsing;
        goldens must match their expected MathML. Must-reject inputs get
        their verdicts. The digest covers every output byte.
        """
        import checks

        xm, layers = self.xm, self.layers
        tracer = layers.Tracer()
        digest = hashlib.sha256()
        totals = dict.fromkeys(
            ("in_nodes", "in_bytes", "refs", "reached", "both", "pmml", "cmml",
             "kept", "fresh", "suffixed", "xrefs", "out_bytes"), 0)
        for i, formula in enumerate(self.workload.formulas):
            self.attempted += 1
            try:
                text = layers.convert(formula, self.table, self.opts)
                composed, doc, vis, registry, math = layers.traced_convert(
                    tracer, i, formula, self.table, self.opts)
            except Exception as exc:  # any exception on a valid input fails the op
                self._fail(f"convert raised {type(exc).__name__}")
                continue
            if composed != text:
                self.problems.append(f"{formula.name}: layer composition differs from build_parallel")
            in_memory = xm.check_links(math)
            if not in_memory.ok:
                self._fail("convert output violates the link contract in memory")
                self.problems.append(f"{formula.name}: {in_memory.lines()[0]}")
                continue
            if formula.golden is not None:
                problem = checks.golden_mismatch(text, formula.golden, formula.renames)
                if problem:
                    self.problems.append(f"golden {formula.name}: {problem}")
            self.outputs[i] = text
            digest.update(text.encode("utf-8") + b"\0")

            self.attempted += 1
            try:
                self.check_ok[i] = layers.check(text).ok
            except Exception as exc:  # the check op failed on the tool's own output
                self._fail(f"check raised {type(exc).__name__}")
                del self.outputs[i]
                continue
            if not self.check_ok[i]:
                self._fail("check reports violations on the tool's own output")

            totals["in_nodes"] += len(doc.nodes)
            totals["in_bytes"] += len(formula.text.encode("utf-8"))
            totals["refs"] += sum(n.kind is xm.NodeKind.REF for n in doc.nodes)
            for node in doc.nodes:
                content, presentation = vis.flags(node)
                totals["reached"] += content or presentation
                totals["both"] += content and presentation
            for (source, branch), nodes in registry.targets.items():
                kept = doc.nodes[source].attrs.xml_id is not None
                totals["kept" if kept else "fresh"] += len(nodes)
                totals["suffixed"] += len(nodes) - 1
                totals["xrefs"] += sum("xref" in n.attrs for n in nodes)
                totals["pmml" if branch is xm.Branch.PRESENTATION else "cmml"] += len(nodes)
            totals["out_bytes"] += len(text.encode("utf-8"))

        for formula in self.workload.must_reject:
            attempted, failed, outcome = checks.reject_verdict(formula, self.table, self.opts)
            self.attempted += attempted
            if failed:
                self._fail(f"{formula.expect}: {outcome}")

        nodes = max(totals["in_nodes"], 1)
        self.counts = {
            "parser.in_nodes": totals["in_nodes"],
            "parser.in_bytes": totals["in_bytes"],
            "parser.refs": totals["refs"],
            "visibility.reached_ratio": totals["reached"] / nodes,
            "visibility.both_ratio": totals["both"] / nodes,
            "pmml.out_nodes": totals["pmml"],
            "cmml.out_nodes": totals["cmml"],
            "convert.amplification": (totals["pmml"] + totals["cmml"]) / nodes,
            "linker.ids_kept": totals["kept"],
            "linker.ids_fresh": totals["fresh"],
            "linker.ids_suffixed": totals["suffixed"],
            "linker.xrefs": totals["xrefs"],
            "serializer.out_bytes": totals["out_bytes"],
        }
        self.digest = digest.hexdigest()

    # -- timed loops ---------------------------------------------------------

    def _loop(self, seconds: float, step) -> int:
        """Call step(pass, position, index) over the timed formulas until the
        time is up, finishing at least one whole pass. Returns whole passes.

        The benchmark's own objects are frozen out of the garbage collector
        first, so collections inside timed calls scan the program's objects,
        as in a CLI process, and not the workload held in memory.
        """
        timed = sorted(self.outputs)
        gc.collect()
        gc.freeze()
        deadline = time.perf_counter() + seconds
        passes = 0
        while True:
            for position, index in enumerate(timed):
                if passes and time.perf_counter() >= deadline:
                    return passes
                step(passes, position, index)
            passes += 1
            if time.perf_counter() >= deadline:
                return passes

    def _untraced(self, index: int, convert_ns: dict, check_ns: dict) -> None:
        formula = self.workload.formulas[index]
        convert, check, table, opts = (
            self.layers.convert, self.layers.check, self.table, self.opts)
        t0 = time.perf_counter_ns()
        text = convert(formula, table, opts)
        t1 = time.perf_counter_ns()
        report = check(text)
        t2 = time.perf_counter_ns()
        convert_ns[index].append(t1 - t0)
        check_ns[index].append(t2 - t1)
        if text != self.outputs[index] or report.ok != self.check_ok[index]:
            self.problems.append(f"{formula.name}: timed output differs from the verified one")

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        convert_ns = {i: [] for i in self.outputs}
        check_ns = {i: [] for i in self.outputs}
        self._setup_spawn()  # unmeasured: fills the bytecode cache
        setup: list[float] = []
        spawn_every = seconds / SETUP_SPAWNS
        next_spawn = time.perf_counter()

        def step(passes: int, position: int, index: int) -> None:
            # Spawns are spread over the run so that they sample the
            # machine at different moments, like the conversions do.
            nonlocal next_spawn
            if len(setup) < SETUP_SPAWNS and time.perf_counter() >= next_spawn:
                setup.append(self._setup_spawn())
                next_spawn += spawn_every
            self._untraced(index, convert_ns, check_ns)

        passes = self._loop(seconds, step)
        while len(setup) < SETUP_SPAWNS:
            setup.append(self._setup_spawn())
        per_convert = [min(v) / 1e3 for v in convert_ns.values()]
        per_check = [min(v) / 1e3 for v in check_ns.values()]
        convert_tail, convert_pct = _tail(per_convert)
        check_tail, check_pct = _tail(per_check)
        metrics = {
            "convert_us.p50": statistics.median(per_convert),
            "convert_us.tail": convert_tail,
            "formulas_per_s": len(per_convert) / (sum(per_convert) / 1e6),
            "check_us.p50": statistics.median(per_check),
            "check_us.tail": check_tail,
            "setup_s": statistics.median(setup),
            "peak_mem_kib": self._peak_mem_kib(),
        }
        info = {
            "samples": len(per_convert),
            "passes": passes,
            "conversions": sum(len(v) for v in convert_ns.values()),
            "convert_us.tail_percentile": round(convert_pct, 3),
            "check_us.tail_percentile": round(check_pct, 3),
            "setup_spawns": len(setup),
        }
        return metrics, info

    def _setup_spawn(self) -> float:
        """Wall time of one fresh interpreter converting the first formula."""
        index = min(self.outputs)
        formula = self.workload.formulas[index]
        spec = json.dumps({"text": formula.text, "tex": formula.tex,
                           "display": formula.display,
                           "numeric": self.workload.numeric_entities})
        command = [sys.executable, "-I", "-X", f"pycache_prefix={OUT / 'pycache'}",
                   "-c", SETUP_CODE, str(SRC)]
        start = time.perf_counter()
        done = subprocess.run(command, input=spec, capture_output=True,
                              text=True, encoding="utf-8", timeout=60, check=False)
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or done.stdout != self.outputs[index]:
            self.problems.append(f"setup spawn: exit {done.returncode}, "
                                 f"{done.stderr.strip()[-200:] or 'different output'}")
        return elapsed

    def _peak_mem_kib(self) -> float:
        """Median tracemalloc peak over the formulas with the largest outputs.

        Each formula is converted once first, so one-time fills of the
        program's caches (compiled patterns, say) are not counted, and the
        collector runs first, so garbage cycles die at the same point.
        """
        largest = sorted(self.outputs, key=lambda i: (-len(self.outputs[i]), i))
        peaks = []
        for index in largest[:PEAK_FORMULAS]:
            formula = self.workload.formulas[index]
            self.layers.convert(formula, self.table, self.opts)
            gc.collect()
            tracemalloc.start()
            self.layers.convert(formula, self.table, self.opts)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1024)
            tracemalloc.stop()
        return statistics.median(peaks)

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        layers = self.layers
        tracer = layers.Tracer()
        timed = sorted(self.outputs)
        untraced_convert = {i: [] for i in timed}
        untraced_check = {i: [] for i in timed}

        def traced(trace: int, index: int) -> None:
            formula = self.workload.formulas[index]
            text = layers.traced_convert(tracer, trace, formula, self.table, self.opts)[0]
            report = layers.traced_check(tracer, trace, text)
            if text != self.outputs[index] or report.ok != self.check_ok[index]:
                self.problems.append(f"{formula.name}: traced output differs from the verified one")

        def step(passes: int, position: int, index: int) -> None:
            # Alternate which run goes first, so neither always finds the
            # caches the other left behind.
            trace = passes * len(timed) + position
            if (passes + position) % 2:
                traced(trace, index)
                self._untraced(index, untraced_convert, untraced_check)
            else:
                self._untraced(index, untraced_convert, untraced_check)
                traced(trace, index)

        passes = self._loop(seconds, step)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{self.workload.name}.jsonl", "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["trace", "name", "parent", "start_ns", "end_ns"],
                                  "formulas": [self.workload.formulas[i].name for i in timed],
                                  "formula_of_trace": "trace % len(formulas)"}) + "\n")
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")

        # Self time: a span's duration minus its children's. Spans of one
        # trace run one after another, so children never overlap.
        self_ns: dict[tuple[int, str], int] = {}
        for trace, name, parent, start, end in tracer.spans:
            key = (trace, name)
            self_ns[key] = self_ns.get(key, 0) + end - start
            if parent >= 0:
                op = tracer.spans[parent][1]
                self_ns[(trace, op)] = self_ns.get((trace, op), 0) - (end - start)
        op_total = {"convert": 0, "check": 0}
        span_total: dict[str, int] = {}
        per_formula: dict[str, dict[int, list[int]]] = {}
        traced_ns: dict[int, list[int]] = {}
        for trace, name, parent, start, end in tracer.spans:
            if parent < 0:
                op_total[name] += end - start
                index = timed[trace % len(timed)]
                traced_ns.setdefault(index, []).append(end - start)
        for (trace, name), value in self_ns.items():
            span_total[name] = span_total.get(name, 0) + value
            index = timed[trace % len(timed)]
            per_formula.setdefault(name, {}).setdefault(index, []).append(value)

        metrics: dict[str, float] = {}
        for op, names in (("convert", layers.CONVERT_SPANS), ("check", layers.CHECK_SPANS)):
            for name in (*names, op):
                label = f"{op}.self" if name == op else name
                best = [min(v) for v in per_formula[name].values()]
                metrics[f"{label}.us"] = statistics.median(best) / 1e3
                metrics[f"{label}.share"] = span_total[name] / op_total[op]
        # Per formula, a traced run holds two ops (convert, check); pair
        # them up so the overhead compares like with like.
        traced_total = sum(
            min(a + b for a, b in zip(v[::2], v[1::2])) for v in traced_ns.values())
        untraced_total = sum(
            min(a + b for a, b in zip(untraced_convert[i], untraced_check[i]))
            for i in timed)
        metrics["trace_overhead.us"] = (traced_total - untraced_total) / len(timed) / 1e3
        metrics["trace_overhead.share"] = (traced_total - untraced_total) / untraced_total
        metrics.update(self.counts)
        metrics["failed_ratio"] = self.failed / self.attempted
        info = {"samples": len(timed), "passes": passes, "spans": len(tracer.spans),
                "spans_file": str((OUT / f"spans-{self.workload.name}.jsonl").relative_to(ROOT))}
        return metrics, info


PER_LAYER_UNITS = {
    ".us": "us", ".share": "ratio", "_ratio": "ratio", "amplification": "ratio",
    "in_bytes": "bytes", "out_bytes": "bytes",
}


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    xm = _import_program()
    environment = _environment(args.seed)
    started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    run = Run(xm, workload)
    run.verify()
    if not run.outputs:
        sys.exit("perfbench: no formula converted and checked; nothing to time\n"
                 + "\n".join(run.problems[:20]))
    if args.trace:
        metrics, info = run.per_layer(args.seconds)
    else:
        metrics, info = run.end_to_end(args.seconds)
    environment["loadavg_after"] = list(os.getloadavg()) if hasattr(os, "getloadavg") else None

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "environment": environment,
        "output_sha256": run.digest,
        "failures": run.failures,
        "problems": run.problems[:20],
        **info,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=1) + "\n", encoding="utf-8")

    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:14.4f} {_unit(name)}")
    for problem in run.problems[:20]:
        print(f"PROBLEM: {problem}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
