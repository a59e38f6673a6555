"""symtensor benchmark: timed, golden-checked passes over one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload groebner-build --seed 1 --seconds 27 --trace 0

One process, no threads, closed loop: each item starts when the previous one
has finished.  A pass runs every item of the workload once and checks every
output against golden values.  Passes repeat until --seconds have elapsed.
After each item a fixed pure-Python reference loop is timed, and pass times
are reported in units of it, so that the host's swings in speed cancel out.
With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it reports the per-layer
metrics.  A full record (environment, per-item times, failures and, when
traced, every span) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import reference  # noqa: E402  (benchmark-local modules sit beside this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

# the yardstick's time on the test machine while its host was quiet; set-up
# times are reported at that speed (see Yardstick)
YARDSTICK_QUIET_S = 0.007
HELD_OUT_SEED = 7919  # reserved for confirming later claims; not used while tuning
MODULES = ("catalog", "groebner", "hilbert", "invariants")


def _since_process_start():
    """Seconds since the kernel started this process (interpreter start-up)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def fresh_import():
    """Import symtensor anew from this checkout's src/, as a new process would."""
    for name in [m for m in sys.modules if m == "symtensor" or m.startswith("symtensor.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("symtensor")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"symtensor imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"symtensor.{m}") for m in MODULES})


def load_golden():
    with open(HERE / "golden.json") as f:
        return json.load(f)


def setup(name, seed):
    api = fresh_import()
    return api, workloads.WORKLOADS[name](api, load_golden(), seed)


def timed_setup(name, seed, yardstick):
    """Set up, and return (result, seconds, yardstick seconds around it)."""
    before = yardstick()
    start = time.perf_counter()
    result = setup(name, seed)
    elapsed = time.perf_counter() - start
    return result, elapsed, (before + yardstick()) / 2


class Yardstick:
    """A fixed pure-Python loop timed beside every item.

    The host's speed swings by up to 2x, for seconds to minutes, as other
    tenants load it, and CPU time slows as much as wall time.  An item's time
    divided by the yardstick's time just before and after it changes far less.
    The loop is the benchmark's own Hilbert recursion on a fixed 30-generator
    ideal (about 8 ms), so no change to symtensor can speed it up.  Set-up
    times, which must be reported in seconds, are scaled the same way to a
    host on which the loop takes YARDSTICK_QUIET_S.
    """

    def __init__(self, golden):
        self.gens = [tuple(map(tuple, g)) for g in golden["hilbert-numerator"][0]["gens"][:30]]

    def __call__(self):
        """Mean seconds of two runs of the loop."""
        start = time.perf_counter()
        for _ in range(2):
            reference.monomial_numerator(self.gens)
        return (time.perf_counter() - start) / 2


def run_pass(workload, yardstick, tracer=None, pass_index=None):
    """Time one pass, then check its outputs.

    Returns (per-item wall seconds, per-item yardstick seconds, failures); an
    item's yardstick time is the mean of the loop's times just before and
    after it.  Garbage left by the previous item is collected before the next
    one starts, outside its timing, as if each item were a fresh CLI call.
    """
    workload.before_pass()
    if tracer is not None:
        tracer.install(pass_index)
    outputs, item_times, item_refs = [], [], []
    ref_before = yardstick()
    for item in workload.items:
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                out = item.run()
            else:
                tracer.item = item.id
                out = tracer.span("bench.item", item.run)
            error = None
        except Exception as exc:  # LimitExceeded, IntegrityError or a bug: the item failed
            traceback.print_exc(file=sys.stderr)
            out, error = None, f"{type(exc).__name__}: {exc}"
        item_times.append(time.perf_counter() - start)
        ref_after = yardstick()
        item_refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        outputs.append((out, error))
    if tracer is not None:
        tracer.uninstall()
    failures = []
    for item, (out, error) in zip(workload.items, outputs):
        if error is None:
            try:
                error = item.check(out)
            except Exception as exc:  # malformed output: the item failed
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"item": item.id, "pass": pass_index, "error": error})
    return item_times, item_refs, failures


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "git_sha": _git_sha()}


def main(argv=None):
    to_main = _since_process_start()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    yardstick = Yardstick(load_golden())
    (api, workload), elapsed, ref = timed_setup(args.workload, args.seed, yardstick)
    setup_times = [(elapsed, ref)]
    # keep the collector from rescanning goldens and inputs during every pass
    gc.collect()
    gc.freeze()

    tracer = tracing.Tracer(api) if args.trace else None
    plain, traced, failures = [], [], []
    begin = time.perf_counter()
    index = 0
    while True:
        use_tracer = tracer is not None and index % 2 == 1
        item_times, item_refs, fails = run_pass(
            workload, yardstick, tracer if use_tracer else None, index)
        (traced if use_tracer else plain).append((item_times, item_refs))
        failures.extend(fails)
        index += 1
        # one more set-up after every pass, discarded, so that set-up is
        # sampled as often as the passes
        setup_times.append(timed_setup(args.workload, args.seed, yardstick)[1:])
        if time.perf_counter() - begin >= args.seconds and (tracer is None or traced):
            break

    attempted = len(workload.items) * index
    item_rel = [statistics.median(p[0][k] / p[1][k] for p in plain)
                for k in range(len(workload.items))]
    pass_wall = [sum(p[0]) for p in plain]
    end_to_end = {
        "setup_s": (statistics.median(t / r for t, r in setup_times) * YARDSTICK_QUIET_S, "s"),
        "pass_rel": (statistics.median(sum(t / r for t, r in zip(*p)) for p in plain), "ref"),
        "item_rel.geomean": (math.exp(statistics.fmean(math.log(x) for x in item_rel)), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {
        "pass_s.median": statistics.median(pass_wall),
        "pass_s.best": sum(min(times) for times in zip(*(p[0] for p in plain))),
        "yardstick_s.median": statistics.median(r for p in plain for r in p[1]),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "why": workloads.WHY[args.workload],
        "environment": environment(),
        "setup": {"to_main_s": to_main, "repeats_s": [t for t, _ in setup_times],
                  "yardstick_s": [r for _, r in setup_times]},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": pass_wall, "wall": wall,
        "item_rel": dict(zip((i.id for i in workload.items), item_rel)),
        "item_wall_s": {i.id: [p[0][k] for p in plain] for k, i in enumerate(workload.items)},
        "item_yardstick_s": {i.id: [p[1][k] for p in plain] for k, i in enumerate(workload.items)},
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted, "failures": failures,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
    }
    metrics = end_to_end
    if tracer is not None:
        metrics = per_layer(tracer, traced, wall["pass_s.median"])
        record["per_layer"] = {k: v[0] for k, v in metrics.items()}
        record["spans"] = tracer.spans

    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"passes, {attempted} items checked, error_rate={record['error_rate']:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, value in wall.items():
        print(f"  {'(' + name + ')':32s} {value:14.6g} s")
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if not failures else 1


def per_layer(tracer, traced, untraced_pass_s):
    """Median over traced passes of each layer's self time and counts."""
    by_pass = tracer.self_times()
    passes = sorted(by_pass)
    metrics = {}
    for metric, span in tracing.LAYER_SPANS.items():
        metrics[metric] = (statistics.median([by_pass[p].get(span, 0.0) for p in passes]), "s")
    for name in tracing.COUNTS:
        metrics[name] = (statistics.median([tracer.counts[p].get(name, 0) for p in passes]), "count")
    traced_pass_s = statistics.median(sum(p[0]) for p in traced)
    metrics["trace.pass_s"] = (traced_pass_s, "s")
    metrics["trace.overhead_s"] = (traced_pass_s - untraced_pass_s, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
