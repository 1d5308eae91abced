"""End-to-end benchmark of the RDF-OLAP engine: one command, six workloads.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--workload all] [--trace] [--repeat K --spread] [--json PATH]

With one workload named (the form BENCHMARK.json's ``command`` uses) this
process *is* the workload run; its last stdout line is the result object.
With ``all``, or with ``--repeat``, every run is a fresh subprocess of the
first form, so peak memory and caches are per run.  README.md in this
directory defines every metric.
"""

import time

PROCESS_START = time.perf_counter()  # set-up time is counted from here

import argparse
import contextlib
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH_ROOT = ROOT / ".bench_e2e_tmp"
#: The timed window is cut into blocks this long (or into this many blocks
#: under ``--ops``); a ``--trace 1`` window alternates plain and traced blocks.
BLOCK_SECONDS = 0.2
OPS_BLOCKS = 20


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, spec):
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of the timed window")
    parser.add_argument("--ops", type=int, default=None,
                        help="end the window after this many operations per client instead "
                             "(counters then repeat exactly for a seed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: a traced run that prints the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", metavar="PATH", help="write the full record(s) here, spans included")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--fixed-seed", action="store_true", help="with --repeat: keep one seed")
    parser.add_argument("--spread", action="store_true",
                        help="with --repeat: median, quartiles and relative spread per metric")
    return parser.parse_args(argv)


@contextlib.contextmanager
def scratch_directory(prefix: str):
    """A per-run directory under the checkout, removed on exit."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


def child_processes():
    return [process.pid for process in multiprocessing.active_children() if process.pid is not None]


def cpu_seconds() -> float:
    """User+system CPU of this process and of its live worker processes.

    ``RUSAGE_CHILDREN`` only counts children already waited for, and the
    parallel executor's workers live as long as the session, so their clocks
    are read from ``/proc`` (no ``/proc``: workers are left out).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in child_processes():
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks  # utime, stime
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the high-water mark of each live worker."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_processes():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def timed_window(workload, args, plain, traced, tracer, host, budget_class) -> None:
    """Run the timed window block by block, a yardstick reading between blocks."""
    deadline = time.perf_counter() + args.seconds
    block_ops = None if args.ops is None else max(1, math.ceil(args.ops / OPS_BLOCKS))
    ops_left = args.ops
    block = 0
    host.read()
    while True:
        tracing = bool(args.trace) and block % 2 == 1
        recorder = traced if tracing else plain
        if block_ops is None:
            budget = budget_class(seconds=min(BLOCK_SECONDS, max(0.0, deadline - time.perf_counter())))
        else:
            budget = budget_class(ops=min(block_ops, ops_left))
            ops_left -= budget.ops
        probing = recorder.probe_seconds
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        if tracing:
            tracer.install()
        try:
            workload.run(budget, recorder, host)
            last = ops_left == 0 if block_ops is not None else time.perf_counter() >= deadline
            if last:
                workload.finish(recorder)
        finally:
            if tracing:
                tracer.uninstall()
        ended = time.perf_counter()
        cpu = cpu_seconds() - cpu_before
        host.read()
        probing = recorder.probe_seconds - probing
        factor = host.factor_between(started, ended)
        recorder.raw_wall_seconds += ended - started - probing
        recorder.wall_seconds += (ended - started - probing) * factor
        recorder.cpu_seconds += (cpu - probing) * factor
        block += 1
        if last:
            return


def percentile(ordered, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def scaled(samples, host) -> list:
    """``(start, seconds)`` samples as ascending seconds on the nominal host."""
    return sorted(seconds * host.factor_at(start) for start, seconds in samples)


def end_to_end_metrics(recorder, host, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics of the plain blocks, scaled to the nominal host."""
    reads = scaled(recorder.reads, host)
    completed = recorder.attempted - recorder.failed
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (percentile(reads, 0.50) * 1000.0, "ms"),
        "op_p95_ms": (percentile(reads, 0.95) * 1000.0, "ms"),
        "ops_per_s": (completed / recorder.wall_seconds, "1/s"),
        "cpu_ms_per_op": (recorder.cpu_seconds * 1000.0 / completed, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def write_metrics(recorder, host) -> dict:
    writes = scaled(recorder.writes, host)
    # Write calls are spread over the whole window: one factor for their total.
    seconds = recorder.write_seconds * recorder.wall_seconds / recorder.raw_wall_seconds
    return {
        "write_p50_ms": (percentile(writes, 0.50) * 1000.0 if writes else 0.0, "ms"),
        "updates_per_s": (recorder.mutations / seconds if seconds else 0.0, "1/s"),
    }


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` (the driver's checkout has none)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="ascii").strip()
        if text.startswith("ref:"):
            text = (ROOT / ".git" / text.split(None, 1)[1]).read_text(encoding="ascii").strip()
        return text
    except OSError:
        return "unknown"


def layer_metrics(plain, traced, tracer, host, counters: dict, spool_files_left: int) -> dict:
    """The per-layer values of a traced run: span totals, counters, tracing overhead."""
    values = dict(counters)
    for name, totals in tracer.summary().items():
        values[f"{name}.calls"] = float(totals["calls"])
        values[f"{name}.self_s"] = totals["self_s"]
    values["serving.query.wait_s"] = plain.wait_seconds + traced.wait_seconds
    values["serving.query.execute_s"] = plain.execute_seconds + traced.execute_seconds
    values["serving.spool_files_left"] = float(spool_files_left)
    plain_rate = (plain.attempted - plain.failed) / plain.wall_seconds
    traced_rate = (traced.attempted - traced.failed) / traced.wall_seconds
    values["trace.ops"] = float(traced.attempted)
    values["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
    values["host.yardstick_ms"] = statistics.fmean(host.values) * 1000.0
    return values


def set_up(workload_class, args, scale, scratch: str, host) -> tuple:
    """Build the workload ``scale.setups`` times; returns the last build and
    the scaled seconds each took (set-up proper plus warm-up)."""
    workload, seconds = None, []
    for repetition in range(scale.setups):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        directory = os.path.join(scratch, f"setup-{repetition}")
        os.mkdir(directory)
        started = time.perf_counter()
        workload = workload_class(args.seed, scale, directory)
        try:
            workload.setup()
            built = time.perf_counter()
            if repetition == scale.setups - 1:
                workload.describe_run()  # fingerprints the instance as generated; not timed
            warming = time.perf_counter()
            workload.warm_up()
        except BaseException:
            workload.close()
            raise
        ended = time.perf_counter()
        host.read()
        host.read()
        seconds.append(((built - started) + (ended - warming)) * host.factor_between(started, ended))
    return workload, seconds


def run_workload(args, spec) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from hostspeed import NOMINAL, HostSpeed

    host = HostSpeed()
    host.read()
    import numpy

    from trace import Tracer
    from workloads import SCALES, WORKLOADS, Budget, Recorder

    imported = time.perf_counter()
    host.read()
    host.read()
    import_s = (imported - PROCESS_START) * host.factor_between(PROCESS_START, imported)

    workload_class = WORKLOADS[args.workload]
    if workload_class.one_cpu and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with scratch_directory(f"{args.workload}-") as scratch:
        # Anything the program spools on its own lands in the per-run directory too.
        os.environ["TMPDIR"] = tempfile.tempdir = scratch
        workload, setups = set_up(workload_class, args, SCALES[args.scale], scratch, host)
        try:
            # The same collector state on every workload: set-up garbage gone,
            # the surviving data out of the collector's reach, collection left on.
            gc.collect()
            gc.freeze()
            plain, traced, tracer = Recorder(), Recorder(), Tracer()
            timed_window(workload, args, plain, traced, tracer, host, Budget)
            rss_mb = peak_rss_mb()
            counters = workload.counters()
            checked, wrong = workload.verify()
        finally:
            workload.close()

    if not plain.reads or (args.trace and not traced.reads):
        print(f"error: no read completed: {plain.errors + traced.errors}", file=sys.stderr)
        return 1
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + wrong
    end_to_end = end_to_end_metrics(plain, host, import_s + statistics.median(setups), rss_mb)
    layers = write_metrics(plain, host)
    if args.trace:
        # Every declared layer metric is reported; one no layer of this
        # workload feeds reads 0.
        values = layer_metrics(plain, traced, tracer, host, counters, workload.spool_files_left)
        for metric in spec["per_layer"]:
            layers.setdefault(metric["name"], (values.get(metric["name"], 0.0), metric["unit"]))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "ops": args.ops,
        "trace": args.trace,
        "clients": workload.clients,
        "reads": len(plain.reads),
        "writes": len(plain.writes),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "verified": checked,
        "wrong": wrong,
        "versions_served": workload.sampler.versions_served,
        "errors": plain.errors + traced.errors,
        "import_s": import_s,
        "setup_repetitions_s": setups,
        "raw_wall_s": plain.raw_wall_seconds + traced.raw_wall_seconds,
        "yardstick_ms": [value * 1000.0 for value in (min(host.values), statistics.fmean(host.values), max(host.values))],
        "yardstick_nominal_ms": NOMINAL * 1000.0,
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        **workload.provenance,
        "end_to_end": {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()},
        "per_layer": {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()},
    }
    print_record(record)
    if args.json:
        if args.trace:
            record["spans"] = tracer.dump()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)

    source = record["per_layer"] if args.trace else record["end_to_end"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: source[metric["name"]] for metric in declared},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


def print_record(record: dict) -> None:
    """Every metric by name with its unit, then what the run was made of."""
    head = (f"{record['workload']}  seed={record['seed']} scale={record['scale']} "
            f"clients={record['clients']} trace={record['trace']}")
    print(head)
    print(f"  data: {record['triples']} triples, fingerprint {record['graph_fingerprint']}, "
          f"op stream {record['op_stream_hash']}, engine {record['engine']}")
    print(f"  host: commit {record['commit'][:12]}, python {record['python']}, "
          f"numpy {record['numpy']}, nproc {record['nproc']}")
    print(f"  ops: {record['reads']} timed reads, {record['writes']} acknowledged writes, "
          f"{record['attempted']} attempted, {record['failed']} failed "
          f"(failed_share {record['failed_share']:.6f} ratio); "
          f"{record['verified']} cubes verified over {record['versions_served']} served versions, "
          f"{record['wrong']} wrong")
    low, middle, high = record["yardstick_ms"]
    print(f"  host speed: yardstick mean {middle:.3f} ms (min {low:.3f}, max {high:.3f}); "
          f"{record['raw_wall_s']:.2f} s of raw window; times are scaled to a "
          f"{record['yardstick_nominal_ms']:.3f} ms yardstick")
    for error in record["errors"]:
        print(f"  error: {error}")
    for name, metric in record["end_to_end"].items():
        print(f"  {name:<34}{metric['value']:>16.4f} {metric['unit']}")
    for name, metric in record["per_layer"].items():
        print(f"  {name:<34}{metric['value']:>16.6f} {metric['unit']}")


# ---------------------------------------------------------------------------
# many runs, each a subprocess
# ---------------------------------------------------------------------------


def spawn(args, workload: str, seed: int, trace: int, record_path: str) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale, "--json", record_path,
    ]
    if args.ops is not None:
        command += ["--ops", str(args.ops)]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = completed.stdout.rstrip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {completed.returncode}")
    with open(record_path, encoding="utf-8") as handle:
        return json.load(handle)


def spread_report(spec: dict, records: list) -> bool:
    """Median, quartiles and (q3 - q1) / median per end-to-end metric x workload."""
    within = True
    print(f"{'workload':<18}{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for workload in dict.fromkeys(record["workload"] for record in records):
        runs = [record for record in records if record["workload"] == workload and not record["trace"]]
        for metric in spec["end_to_end"]:
            values = [run["end_to_end"][metric["name"]]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                flag, within = "  EXCEEDS BOUND", False
            elif spread > metric["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"{workload:<18}{metric['name']:<16}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.4f}{metric['bound']:>8.2f}{flag}")
    return within


def run_many(args, spec) -> int:
    if args.spread and args.repeat < 2:
        raise SystemExit("--spread needs --repeat 2 or more")
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    records = []
    with scratch_directory("records-") as scratch:
        for name in names:
            for repetition in range(args.repeat):
                seed = args.seed if args.fixed_seed else args.seed + repetition
                for trace in (0, 1) if args.trace else (0,):
                    path = os.path.join(scratch, f"{name}-{repetition}-{trace}.json")
                    records.append(spawn(args, name, seed, trace, path))
    within = spread_report(spec, records) if args.spread else True
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=1)
    return 0 if within else 1


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload == "all" or args.repeat > 1:
        return run_many(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
