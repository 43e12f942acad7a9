"""File-to-answer pipeline benchmark for the ``repro`` library.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload circuit-cold --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` into ``.perfbench_work/`` by a child
process and removed at exit.  The untimed generation is followed by the
program's set-up (measured several times; the median is reported), then a
closed loop of ops for ``--seconds`` seconds, rounded up to whole cycles over
the workload's (input, query) pairs and split over ``MEASURE_PROCESSES``
fresh processes.  Every op and every set-up is timed between two runs of a
fixed reference kernel (:func:`reference_seconds`), and its time is reported
at the reference speed (:func:`at_reference_speed`); the latency metrics are
each pair's median (:func:`typical_cycle`).  Every answer is checked afterwards,
in this process, against an independent computation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally
replays the first half of the cycles with timing wrappers installed around
each layer's entry points (see ``spans.py``) and prints the per-layer
metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A run record and the traced spans go to ``.perfbench_out/``.
``--smoke`` runs each workload on tiny inputs for one cycle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SOURCE = ROOT / "src"

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# The timed loop runs in this many fresh processes, one after another.
MEASURE_PROCESSES = 4
IMPORT_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro.cli, repro.engine, repro.data.io, repro.queries.parser\n"
    "print(time.perf_counter() - start)\n"
)
# The reference kernel's input: 200 facts with probabilities, as load_tid's
# JSON format writes them.
REFERENCE_DOC = json.dumps(
    {
        "probabilities": [
            {"relation": "S", "arguments": [f"a{i}", f"b{i % 37}"], "probability": f"{i % 7 + 1}/8"}
            for i in range(200)
        ]
    }
)
# Times are reported at the speed at which the reference kernel takes this
# long (about its median on the 2-vCPU machine the benchmark was tuned on).
REFERENCE_SECONDS = 0.0025


def reference_seconds() -> float:
    """Time one run of a fixed kernel of the kinds of work the ops do.

    It parses JSON, builds a dict of tuple keys, parses ``Fraction`` strings
    and folds them with growing denominators.  It uses no code of the
    library, so a change to the library does not move it.
    """
    start = perf_counter()
    index = {}
    for entry in json.loads(REFERENCE_DOC)["probabilities"]:
        index[entry["relation"], tuple(entry["arguments"])] = Fraction(entry["probability"])
    total = Fraction(0)
    for p in index.values():
        total = total * (1 - p) + p
    return perf_counter() - start


def at_reference_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured next to reference runs that took ``reference``
    seconds, scaled to the speed at which they take ``REFERENCE_SECONDS``.

    On the shared two-CPU machine the benchmark was tuned on, the same op
    ran 1.0-2.1x its best from second to second and 1.2-1.8x slower for
    minutes at a time, with CPU time moving with wall time.  The reference
    kernel run next to it slowed by about the same factor, so the scaled
    times spread far less from run to run than the raw ones (the numbers
    are in README.md).
    """
    return seconds * REFERENCE_SECONDS / reference


def parse_arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one cycle")
    # Internal: write the workload's input files into a directory and exit.
    parser.add_argument("--generate-into", type=Path, help=argparse.SUPPRESS)
    # Internal: run a share of the timed loop on generated inputs, write the
    # op records to a file and exit.
    parser.add_argument("--measure-into", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--first-cycle", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--resident", default="", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def library_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_self(arguments: argparse.Namespace, seconds: float, *extra: str) -> None:
    """Run this script in a child process on the same workload and seed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", arguments.workload]
    command += ["--seed", str(arguments.seed), "--seconds", str(seconds), *extra]
    if arguments.smoke:
        command.append("--smoke")
    subprocess.run(command, cwd=ROOT, env=library_env(), timeout=170, check=True)


def import_seconds() -> float:
    """Median cold import time of the library in a fresh interpreter, at
    the reference speed (the reference kernel runs just before and just after
    each import).

    One unrecorded warm-up first, so a fresh checkout's bytecode compilation
    is not counted.
    """
    env = library_env()
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for attempt in range(IMPORT_REPEATS + 1):
        before = reference_seconds()
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if attempt:
            seconds = float(child.stdout.strip().splitlines()[-1])
            times.append(at_reference_speed(seconds, (before + reference_seconds()) / 2))
    return statistics.median(times)


def render(value, tracer) -> bool:
    """Render the answer exactly as the CLI prints it; False when it cannot."""
    index = tracer.open("output.render") if tracer is not None and tracer.op is not None else -1
    try:
        f"probability: {value} (= {float(value):.6f})"
        return True
    except ValueError:
        # str(Fraction) past Python's integer string-conversion digit limit.
        return False
    finally:
        if index >= 0:
            tracer.close(index)


class OpRecord:
    __slots__ = (
        "phase", "index", "cycle", "spec", "latency", "reference", "error", "rendered", "value"
    )

    def __init__(self, phase, index, cycle, spec):
        self.phase = phase
        self.index = index
        self.cycle = cycle
        self.spec = spec
        self.latency = 0.0
        self.reference = 0.0
        self.error = ""
        self.rendered = False
        self.value = None

    @property
    def scaled(self) -> float:
        """The op's latency at the reference speed."""
        return at_reference_speed(self.latency, self.reference)


def run_op(workload, spec, phase, index, cycle, tracer, ledger):
    from repro.resilience import ResourceBudget

    record = OpRecord(phase, index, cycle, spec)
    budget = ResourceBudget() if tracer is not None else None
    # Each op stands for a new process: it starts from a collected heap.
    gc.collect()
    before = reference_seconds()
    op_span = tracer.begin_op(index) if tracer is not None else -1
    outcome = None
    start = perf_counter()
    try:
        outcome = workload.run(spec, budget)
        record.value = outcome.value
        record.rendered = render(outcome.value, tracer)
    except Exception:  # an op that raises is a failed op; the loop keeps running
        record.error = traceback.format_exc(limit=3)
    record.latency = perf_counter() - start
    if tracer is not None:
        tracer.end_op(op_span)
    # The mean of the reference runs just before and just after the op.
    record.reference = (before + reference_seconds()) / 2
    if outcome is not None:
        workload.after(outcome)
        record.error = record.error or outcome.invariant_error
    if ledger is not None:
        record.error = record.error or ledger.collect(index, spec, outcome, budget)
    return record


def settle():
    """Collect garbage and freeze what survives, so the loaded library is
    not rescanned by the collector during the timed ops."""
    gc.collect()
    gc.freeze()


def measure(workload, seconds, smoke, first_cycle=0):
    """Whole cycles until the op and reference time reaches ``seconds`` (one
    in smoke mode)."""
    settle()
    records = []
    busy = 0.0
    cycle = first_cycle
    while True:
        for spec in workload.cycle(cycle):
            record = run_op(workload, spec, 0, len(records), cycle, None, None)
            records.append(record)
            busy += record.latency + 2 * record.reference
        cycle += 1
        if smoke or busy >= seconds:
            return records


def measure_share(workload, arguments):
    """In a child process: one share of the timed loop, written to a file."""
    workload.attach(arguments.resident)
    records = measure(workload, arguments.seconds, arguments.smoke, arguments.first_cycle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    position = {id(spec): i for i, spec in enumerate(workload.base)}
    ops = [
        (position[id(r.spec)], r.cycle, r.latency, r.reference, r.error, r.rendered, r.value)
        for r in records
    ]
    with open(arguments.measure_into, "wb") as handle:
        pickle.dump({"ops": ops, "peak_rss_mb": peak_rss_mb}, handle)


def measure_in_processes(workload, arguments, workdir):
    """The timed loop, split over ``MEASURE_PROCESSES`` fresh processes.

    A fresh process gets a fresh random address-space layout.  On the
    machine this was tuned on, in a quiet period, 5 of 14 processes ran
    every op about 1.6x slower for their whole life, and none of 12 did with
    address-space randomization turned off.  The pair medians take every
    repeat over all the processes, so one slow layout moves them little.
    Returns the op records and the largest peak resident memory of the
    processes.
    """
    processes = 1 if arguments.smoke else MEASURE_PROCESSES
    records = []
    peaks = []
    for share in range(processes):
        path = workdir / f"measure-{share}.pickle"
        first = records[-1].cycle + 1 if records else 0
        run_self(
            arguments,
            arguments.seconds / processes,
            "--measure-into", str(path),
            "--first-cycle", str(first),
            "--resident", workload.resident(),
        )
        with open(path, "rb") as handle:
            result = pickle.load(handle)
        for spec, cycle, latency, reference, error, rendered, value in result["ops"]:
            record = OpRecord(0, len(records), cycle, workload.base[spec])
            record.latency, record.reference = latency, reference
            record.error, record.rendered, record.value = error, rendered, value
            records.append(record)
        peaks.append(result["peak_rss_mb"])
    return records, max(peaks)


def typical_cycle(records):
    """One cycle's op latencies, each op at its (input, query) pair's median.

    A pair's median is over the latencies of all its repeats, each at the
    reference speed (:attr:`OpRecord.scaled`).  Every cycle holds the same
    ops, so the result keeps the workload's mix of ops.  Returned sorted.
    """
    by_pair = {}
    for record in records:
        by_pair.setdefault(pair_key(record), []).append(record.scaled)
    latency = {key: statistics.median(values) for key, values in by_pair.items()}
    first = records[0].cycle
    return sorted(latency[pair_key(record)] for record in records if record.cycle == first)


def throughput(latencies):
    """Ops per second of op time."""
    return len(latencies) / sum(latencies)


def tail(ordered):
    """The typical cycle's slowest op: (latency, percentile, its share of ops).

    With every op at its pair's median, each percentile above
    ``100 * (1 - share)`` is this value; "the highest percentile with ten
    samples beyond it" is too, whenever the slowest pair ran at least
    eleven times.
    """
    share = sum(1 for value in ordered if value == ordered[-1]) / len(ordered)
    return ordered[-1], 100.0 * (1.0 - share), share


def pair_key(record):
    return f"{record.spec.source.path.name} | {record.spec.query}"


def pair_latencies(records, attribute):
    """Every latency of each (input, query) pair, raw or scaled, in run order."""
    by_pair = {}
    for record in records:
        by_pair.setdefault(pair_key(record), []).append(getattr(record, attribute))
    return by_pair


def verify(workload, records):
    """Check every answer outside the timed region; return the failed count."""
    failed = 0
    for record in records:
        if not record.error:
            if record.value != workload.expected(record.spec):
                record.error = "wrong answer"
        if record.error:
            failed += 1
            print(
                f"# op {record.phase}/{record.index} failed: {record.error.strip()}",
                file=sys.stderr,
            )
    return failed


def main(argv: list[str] | None = None) -> int:
    arguments = parse_arguments(argv)
    # Terminate through SystemExit so the generated inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SOURCE}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))

    from ledger import Ledger, metric
    from spans import Tracer
    from workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        print(f"error: unknown workload {arguments.workload!r}", file=sys.stderr)
        return 2
    if arguments.generate_into is not None:
        WORKLOADS[arguments.workload].generate(arguments.generate_into, arguments.seed, arguments.smoke)
        return 0
    if arguments.measure_into is not None:
        directory = arguments.measure_into.parent
        measure_share(WORKLOADS[arguments.workload](directory, arguments.seed, arguments.smoke), arguments)
        return 0
    workdir = ROOT / ".perfbench_work" / f"{arguments.workload}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    phases = {}
    clock = perf_counter()

    def phase(name):
        nonlocal clock
        now = perf_counter()
        phases[name] = now - clock
        clock = now

    try:
        run_self(arguments, 0, "--generate-into", str(workdir))
        workload = WORKLOADS[arguments.workload](workdir, arguments.seed, arguments.smoke)
        phase("generate")
        imports = import_seconds()
        setups = []
        for _ in range(SETUP_REPEATS):
            before = reference_seconds()
            start = perf_counter()
            workload.setup()
            seconds = perf_counter() - start
            setups.append(at_reference_speed(seconds, (before + reference_seconds()) / 2))
        phase("setup")
        records, peak_rss_mb = measure_in_processes(workload, arguments, workdir)
        phase("measure")
        typical = typical_cycle(records)
        cycles = records[-1].cycle + 1
        traced = []
        layers = {}
        if arguments.trace:
            tracer = Tracer()
            ledger = Ledger(tracer, workload)
            tracer.install()
            # The first half of the cycles (at least one): the same mix of ops.
            replayed = [record for record in records if record.cycle < max(1, cycles // 2)]
            try:
                ledger.trace_setup()
                settle()
                for record in replayed:
                    traced.append(
                        run_op(workload, record.spec, 1, record.index, record.cycle, tracer, ledger)
                    )
            finally:
                tracer.uninstall()
            layers = ledger.metrics(traced)
            overhead = 1.0 - throughput(typical_cycle(traced)) / throughput(typical_cycle(replayed))
            layers["trace.overhead_frac"] = metric(overhead, "ratio")
            tracer.dump(outdir / f"{arguments.workload}-seed{arguments.seed}.spans.jsonl")
            phase("trace")
        everything = records + traced
        failed = verify(workload, everything)
        workload.close()
        phase("verify")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(everything)
    answered = [record for record in everything if not record.error]
    render_failures = sum(1 for record in answered if not record.rendered)
    tail_value, tail_percentile, tail_share = tail(typical)
    end_to_end = {
        "setup_s": metric(imports + statistics.median(setups), "s"),
        "op_p50_s": metric(statistics.median(typical), "s"),
        "op_tail_s": metric(tail_value, "s"),
        "ops_per_s": metric(throughput(typical), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    latencies = [record.latency for record in records]
    summary = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "ops": len(records),
        "cycles": cycles,
        "all_ops_p50_s": statistics.median(latencies),
        "all_ops_per_s": throughput(latencies),
        "reference_p50_s": statistics.median(record.reference for record in records),
        "import_s": imports,
        "setup_repeats_s": setups,
        "op_tail_percentile": tail_percentile,
        "op_tail_samples": round(tail_share * len(records)),
        "error_rate": failed / attempted,
        "render_fail_rate": render_failures / len(answered) if answered else 0.0,
        "phase_seconds": phases,
        "pair_latencies_s": pair_latencies(records, "latency"),
        "pair_scaled_latencies_s": pair_latencies(records, "scaled"),
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    record_path = outdir / f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}.json"
    record_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(
        f"# {arguments.workload} seed {arguments.seed}: {len(records)} ops in "
        f"{summary['cycles']} cycles, "
        f"error_rate {summary['error_rate']:.4f}, render_fail_rate "
        f"{summary['render_fail_rate']:.4f}, op_tail_s at p{tail_percentile:.1f} "
        f"(the slowest pair, {summary['op_tail_samples']} of {len(records)} ops)"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": layers if arguments.trace else end_to_end,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
