"""Benchmark for the aifv package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from
``src/``.  The workload's inputs are generated from the seed, then
identical rounds of operations run in this process until ``--seconds``
have passed, with set-up timed in fresh interpreters between rounds.
Every output is checked against the reference in ``ref.py``.

End-to-end times are built from each operation's fastest time over the
rounds, scaled by how fast a fixed reference job ran during the run
(see ``reference_job``), so that the host's drift in speed cancels.

With ``--trace 0`` the metrics are the end-to-end ones listed in
BENCHMARK.json.  With ``--trace 1`` rounds alternate between plain and
traced, and the metrics are the per-layer ones, computed from spans
recorded around each layer boundary.  The next-to-last stdout line is a
self-describing JSON record of the run; the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.  ``--tiny`` shrinks
every input for a quick self-check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
PROBES = 5
# The reference job's fastest time, in seconds, on an idle 2-vCPU Intel
# Xeon host with CPython 3; see ``reference_job``.
REFERENCE_S = 0.0048
# no round starts after this many seconds, so a run always ends well
# within three minutes even when rounds become much slower
ROUND_CAP_S = 100


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_revision(root):
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        path = os.path.join(git, ref_name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    return {"git_revision": git_revision(ROOT),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "seed": seed}


def setup_probe(spec, work, times):
    """A function that times one fresh interpreter loading ``spec``.

    Each call appends the set-up time it measured to ``times``.
    """
    path = os.path.join(work, "probe.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    def probe():
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), SRC, path],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(done.stdout)["setup_s"])
    return probe


def reference_job():
    """Fixed pure-Python work that uses none of the package.

    Small-integer arithmetic and dict stores, then shifts of a
    100000-bit integer: the same kinds of work the package does.  No
    change to the package can change how long this takes; only the
    machine's speed at the moment can.
    """
    total = 0
    table = {}
    for i in range(20_000):
        total += i * i % 7
        table[i & 255] = total
    value = (1 << 100_003) - 12_345
    for i in range(2_000):
        total += (value >> (i * 37)) & 0xFF
    return total


def time_reference(times, repeats=5):
    """Append the fastest of ``repeats`` timings of the reference job."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_job()
        best = min(best, time.perf_counter() - t0)
    times.append(best)


def run_rounds(aifv, workload, tally, seconds, tracer, min_rounds, probe):
    """Run rounds until ``seconds`` pass and each kind has ``min_rounds``.

    Without a tracer every round is plain, and ``probe`` runs before
    every round: it samples set-up and the reference job's speed, so both
    are sampled across the whole run like everything else.  With a
    tracer, rounds alternate plain and traced, so both kinds see the
    same conditions.  Returns the summed operation time of each plain
    and each traced round.
    """
    walls = {False: [], True: []}
    kinds = [False, True] if tracer is not None else [False]
    start = time.perf_counter()
    while True:
        if probe is not None:
            probe()
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install(aifv)
        # start every round from the same collector state
        gc.collect()
        try:
            wall = workload.run_round(tally, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        elapsed = time.perf_counter() - start
        if elapsed >= ROUND_CAP_S or (
                elapsed >= seconds
                and min(len(walls[k]) for k in kinds) >= min_rounds):
            return walls


def layer_metrics(spans, rounds):
    """Per-layer values for one set-up plus one average traced round.

    Returns (values, details): values maps metric names to numbers;
    details holds the per-span totals and each exponent fit.
    """
    selfs = tracing.self_times(spans)

    def total(names, value=lambda i: selfs[i], keep=lambda i: True):
        setup = run = 0.0
        for i, s in enumerate(spans):
            if s[0] in names and keep(i):
                if s[4] == "setup":
                    setup += value(i)
                else:
                    run += value(i)
        return setup + run / rounds

    def attr(key):
        return lambda i: spans[i][5][key]


    values = {}
    layers = {}
    for name in sorted({s[0] for s in spans}):
        values[f"{name}.self_s"] = total({name})
        values[f"{name}.calls"] = total({name}, lambda i: 1)
        layers[name] = {"self_s": values[f"{name}.self_s"],
                        "calls": values[f"{name}.calls"]}
    validate = {"codetree.validate_direct", "codetree.validate_interval"}

    def failed(i):
        return spans[i][6]

    values.update({
        "codetree.validate.calls": total(validate, lambda i: 1),
        "codetree.expanded_words": total(validate, attr("size")),
        "codetree.violations": total(validate, attr("violations")),
        "codec.encode.symbols": total({"codec.encode"}, attr("size")),
        "codec.encode.bits": total({"codec.encode"}, attr("bits")),
        "codec.decode.symbols": total({"codec.decode"}, attr("size")),
        "codec.decode.errors": total({"codec.decode"}, lambda i: 1, failed),
        "codec.decode.error_self_s": total({"codec.decode"}, keep=failed),
        "wordset.reduce.member_bits": total({"wordset.reduce"},
                                            attr("member_bits")),
        "analysis.monte_carlo_rate.symbols": total(
            {"analysis.monte_carlo_rate"}, attr("symbols")),
    })
    for m in (4, 256):
        def of_m(i, m=m):
            return spans[i][5]["alphabet"] == m
        symbols = total({"codec.decode"}, attr("size"), of_m)
        busy = total({"codec.decode"}, keep=of_m)
        values[f"codec.decode.us_per_symbol.m{m}"] = \
            1e6 * busy / symbols if symbols else 0.0
    fits = {}
    for name in ("codetree.validate_direct", "codetree.validate_interval",
                 "codec.decode", "wordset.reduce"):
        # time of each call that returned, against its size
        slope, n, sizes = tracing.loglog_slope(
            (s[5]["size"], s[2] - s[1]) for s in spans
            if s[0] == name and not s[6])
        values[f"{name}.exponent"] = slope
        fits[f"{name}.exponent"] = {"slope": slope, "points": n,
                                    "distinct_sizes": sizes}
    return values, {"layers": layers, "fits": fits}


def run(args, spec):
    sys.path.insert(0, SRC)
    import aifv
    import aifv.cli

    work = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = workloads.WORKLOADS[args.workload](
            aifv, args.seed, args.tiny, work)
        tally = workloads.Tally()
        record = {"benchmark": "aifv", "workload": args.workload,
                  "seconds": args.seconds, "trace": args.trace,
                  "tiny": args.tiny, "environment": environment(args.seed)}
        min_rounds = 1 if args.tiny else workload.min_rounds
        min_probes = 1 if args.tiny else PROBES
        tracer = tracing.Tracer() if args.trace else None
        probes = []
        reference = []
        probe = None
        if tracer is None:
            setup = setup_probe(workload.probe_spec, work, probes)

            def probe():
                time_reference(reference)
                setup()
            workload.setup()
        else:
            tracer.op = "setup"
            tracer.install(aifv)
            try:
                workload.setup()
            finally:
                tracer.uninstall()
            min_rounds = max(1, min_rounds // 2)
        workloads.pinned_checks(aifv, tally)
        walls = run_rounds(aifv, workload, tally, args.seconds, tracer,
                           min_rounds, probe)
        while probe is not None and len(probes) < min_probes:
            probe()
        record["setup_probes_s"] = probes
        record["reference_s"] = reference
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = walls[False]
    record["rounds"] = {"plain": len(plain), "traced": len(walls[True])}
    record["round_wall_s"] = {"plain": plain, "traced": walls[True]}
    if tracer is None:
        # every time is scaled to the reference job's speed on an idle
        # host, which cancels the host's slow drift in speed
        scale = REFERENCE_S / min(reference)
        lat = [t * scale for t in tally.best()]
        p = workload.tail_percentile
        tail = percentile(lat, p)
        record["tail"] = {"percentile": p, "samples": len(lat),
                          "beyond": sum(x > tail for x in lat)}
        codec = list(tally.codec.values())
        symbols = sum(c[2] for c in codec)
        values = {
            "setup_s": scale * statistics.median(probes),
            "wall_s": sum(lat),
            "encode_sym_per_s": symbols / (scale * sum(c[0] for c in codec)),
            "decode_sym_per_s": symbols / (scale * sum(c[1] for c in codec)),
            "op_p50_ms": 1e3 * percentile(lat, 50),
            "op_tail_ms": 1e3 * tail,
            "bits_per_symbol": sum(c[3] for c in codec) / symbols,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["time_scale"] = scale
        kind = "end_to_end"
    else:
        values, details = layer_metrics(tracer.spans, len(walls[True]))
        # the fastest round of each kind is the one with the least
        # interference from the rest of the host
        values["trace.overhead_s"] = min(walls[True]) - min(plain)
        record.update(details)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}-{os.getpid()}.json")
        tracer.dump(path)
        record["trace_file"] = os.path.relpath(path, ROOT)
        kind = "per_layer"
    metrics = {}
    for entry in spec[kind]:
        # a layer the workload never calls reads 0
        value = values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    record["metrics"] = {name: dict(m, better=e["better"])
                         for (name, m), e in zip(metrics.items(), spec[kind])}
    record["fail_ratio"] = {"value": tally.failed / tally.attempted,
                            "failed": tally.failed,
                            "attempted": tally.attempted}
    record["failures"] = tally.failures
    return record, {"correct": tally.failed == 0,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, for the self-check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "aifv", "__init__.py")):
        print(f"error: no package source in {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    record, summary = run(args, spec)
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
