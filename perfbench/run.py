"""Session benchmark: one workload, one seed, one fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload equi_fanout --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload spill_budget --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload elastic_churn --seed 1 --check-determinism

The caller drives one session in a closed loop: each poll hands over a
fixed number of arrivals (after any control call due at that poll), flushes
and pops the results, which are folded into per-query digests.  Rounds of
the whole input, each on a fresh session, repeat until ``--seconds`` have
been measured and at least three plain rounds made.  Afterwards every round's
digests are checked against an independent reference join.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

import reference
import tracing
from workloads import SRC, WORKLOADS, Poll, Workload, admit, import_repro

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Plain rounds per run, so each poll's latency is a median of at least three.
MIN_ROUNDS = 3
SETUP_PROBES = 7

#: ``FS_IOC_GETFLAGS`` / ``FS_IOC_SETFLAGS`` and the ext4 ``TOPDIR`` inode flag.
FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
FS_TOPDIR_FL = 0x00020000

END_TO_END_UNITS = {
    "throughput_tps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "rss_peak_mb": "MB",
    "setup_s": "s",
    "service_rate": "1/cost",
    "state_tuples_avg": "tuples",
}

#: Per-layer time metrics: the span names whose self times each one sums.
LAYER_TIMES = {
    "runtime.engine.ingest_self_ms": (
        "StreamEngine.process", "StreamEngine.process_many", "StreamEngine.flush",
    ),
    "runtime.engine.pop_ms": ("StreamEngine.pop_results",),
    "runtime.engine.migrate_ms": ("StreamEngine.add_query", "StreamEngine.remove_query"),
    "core.chain.self_ms": ("SlicedChainBase.process_batch",),
    "operators.sliced_join.ms": ("SlicedBinaryJoin.process_batch",),
    "operators.count_join.ms": ("CountSlicedBinaryJoin.process_batch",),
    "engine.spill.probe_ms": ("SpilledState.probe",),
    "engine.spill.purge_ms": ("SpilledState.purge",),
    "engine.spill.write_ms": (
        "SpilledState.flush", "SpillableJoinMixin.spill", "SpillableJoinMixin.spill_flush",
    ),
    "runtime.sharding.ingest_self_ms": (
        "ShardedStreamEngine.process", "ShardedStreamEngine.process_many",
        "ShardedStreamEngine.flush",
    ),
    "runtime.sharding.merge_ms": ("ShardedStreamEngine.pop_results_all",),
    "runtime.sharding.reshard_ms": ("ShardedStreamEngine.reshard",),
    "runtime.sharding.planner_ms": ("ShardPlanner.maybe_reshard",),
    "engine.metrics.snapshot_ms": ("MetricsCollector.snapshot",),
}

#: Deterministic per-layer counts and their units.
LAYER_COUNT_UNITS = {
    "runtime.engine.route_cmp_per_arrival": "cmp/arrival",
    "runtime.engine.select_cmp_per_arrival": "cmp/arrival",
    "runtime.engine.results_per_arrival": "1/arrival",
    "core.chain.batches": "count",
    "operators.probe_cmp_per_arrival": "cmp/arrival",
    "operators.purge_cmp_per_arrival": "cmp/arrival",
    "operators.insert_cmp_per_arrival": "cmp/arrival",
    "operators.probe_hit_ratio": "ratio",
    "engine.spill.segments": "count",
    "engine.spill.evictions": "count",
    "engine.spill.cold_reads": "count",
    "engine.spill.resident_peak_kb": "KiB",
    "engine.spill.spilled_kb": "KiB",
    "runtime.sharding.reshards": "count",
    "runtime.sharding.reshard_moved": "count",
    "runtime.sharding.skew": "ratio",
}


class RssProbe:
    """Resident set size of this process, read from ``/proc/self/statm``."""

    def __init__(self) -> None:
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0

    def read(self) -> int:
        rss = int(os.pread(self._fd, 128, 0).split()[1]) * self._page
        if rss > self.peak:
            self.peak = rss
        return rss

    def close(self) -> None:
        os.close(self._fd)


def spread_inodes(directory: Path) -> None:
    """Let ext4 place each subdirectory of ``directory`` in a lightly used block group.

    Each budgeted round's spill store is a fresh directory under
    ``directory`` in which the program creates and deletes thousands of
    small segment files.  In one shared directory those creations slowed
    down run after run: after a few ``spill_budget`` runs a file creation
    took about 400 us there against 13 us in a fresh block group (2-vCPU VM,
    journal-less ext4), and runs made one after another lost half their
    throughput.  With the ``TOPDIR`` flag set on ``directory``, ext4 spreads
    its subdirectories over lightly used groups, so a run no longer inherits
    the deletions of the runs before it.  Where the flag is not supported
    nothing changes.
    """
    fd = os.open(directory, os.O_RDONLY)
    try:
        flags = array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        flags[0] |= FS_TOPDIR_FL
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
    except OSError:
        pass
    finally:
        os.close(fd)


class Round:
    """What one pass of the loop over the whole input measured and produced."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.latencies: list[float] = []
        self.busy = 0.0
        self.digests: dict[str, reference.Digest] = {}
        #: Per query, the ``[first, last)`` arrival positions whose completions it receives.
        self.ranges: dict[str, tuple[int, int]] = {}
        self.delivered = 0
        self.state_total = 0
        self.polls = 0
        self.operations = 0
        self.failed = 0
        self.reshards: list[tuple[int, int]] = []
        self.snapshot: dict = {}
        self.skew = 0.0
        self.self_ms: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.chain_matches = 0

    def deterministic(self) -> dict:
        return {
            "service_rate": self.delivered / self.snapshot["cpu_cost"],
            "state_tuples_avg": self.state_total / self.polls,
            "digests": {name: d.value() for name, d in sorted(self.digests.items())},
            "reshards": self.reshards,
        }


def run_round(workload: Workload, arrivals, polls: list[Poll], rss: RssProbe, tracer) -> Round:
    """Drive one fresh session over every poll of the input.

    Each poll's tuples are built just before it is handed over, so the
    session holds the only references to the tuples it keeps in state and
    the process's resident memory reflects that state.
    """
    from repro.streams.tuples import StreamTuple

    record = Round(tracer is not None)
    session, planner = workload.build()
    sharded = workload.sharded
    live = [query.name for query in workload.standing]
    for name in live:
        record.digests[name] = reference.Digest()
        record.ranges[name] = (0, len(arrivals))
    clock = time.perf_counter
    planned = len(polls) + sum(len(poll.controls) for poll in polls)
    done = 0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for poll in polls:
            chunk = [
                StreamTuple(a.stream, a.timestamp, {"join_key": a.join_key, "value": a.value}, a.seqno)
                for a in arrivals[poll.start : poll.end]
            ]
            for control in poll.controls:
                name = control.query.name
                if control.kind == "add":
                    live.append(name)
                    record.digests[name] = reference.Digest()
                    record.ranges[name] = (poll.start, len(arrivals))
                else:
                    live.remove(name)
                    record.ranges[name] = (record.ranges[name][0], poll.start)
            removed = []
            started = clock()
            for control in poll.controls:
                if control.kind == "add":
                    admit(session, control.query)
                else:
                    removed.append((control.query.name, session.remove_query(control.query.name)))
                done += 1
            event = planner.maybe_reshard(session) if planner is not None else None
            session.process_many(chunk)
            session.flush()
            if sharded:
                out = session.pop_results_all()
            else:
                out = {name: session.pop_results(name) for name in live}
            elapsed = clock() - started
            done += 1
            record.busy += elapsed
            record.latencies.append(elapsed)
            if event is not None:
                record.reshards.append((event.old_shards, event.new_shards))
            for name, results in removed + list(out.items()):
                digest = record.digests[name]
                for joined in results:
                    digest.add(joined.timestamp, joined.left.seqno, joined.right.seqno)
                record.delivered += len(results)
            record.state_total += session.state_size()
            record.polls += 1
            rss.read()
    except Exception:  # one failed operation ends the round; report it, keep the run
        traceback.print_exc(file=sys.stderr)
        record.failed = planned - done
    finally:
        if tracer is not None:
            tracer.remove()
    record.operations = planned + len(record.reshards)
    if record.failed:
        session.close()
        return record
    record.snapshot = dict(session.merged_snapshot() if sharded else session.metrics.snapshot())
    if planner is not None:
        record.skew = max(
            (d.plan.imbalance for d in planner.decisions if d.plan is not None), default=1.0
        )
    session.close()
    if tracer is not None:
        record.self_ms = tracer.self_ms()
        record.calls = tracer.calls()
        record.chain_matches = tracer.chain_matches
    return record


def layer_counts(record: Round, arrivals: int) -> dict[str, float]:
    snap = record.snapshot
    probes = snap.get("comparisons.probe", 0.0)
    return {
        "runtime.engine.route_cmp_per_arrival": snap.get("comparisons.route", 0.0) / arrivals,
        "runtime.engine.select_cmp_per_arrival": snap.get("comparisons.select", 0.0) / arrivals,
        "runtime.engine.results_per_arrival": record.delivered / arrivals,
        "core.chain.batches": float(record.calls.get("SlicedChainBase.process_batch", 0)),
        "operators.probe_cmp_per_arrival": probes / arrivals,
        "operators.purge_cmp_per_arrival": snap.get("comparisons.purge", 0.0) / arrivals,
        "operators.insert_cmp_per_arrival": snap.get("comparisons.insert", 0.0) / arrivals,
        "operators.probe_hit_ratio": record.chain_matches / probes if probes else 0.0,
        "engine.spill.segments": snap.get("observations.spill.segments", 0.0),
        "engine.spill.evictions": snap.get("observations.spill.evictions", 0.0),
        "engine.spill.cold_reads": snap.get("observations.spill.cold_reads", 0.0),
        "engine.spill.resident_peak_kb": snap.get("memory.max_resident_bytes", 0.0) / 1024,
        "engine.spill.spilled_kb": snap.get("memory.spilled_bytes", 0.0) / 1024,
        "runtime.sharding.reshards": snap.get("reshard.count", 0.0),
        "runtime.sharding.reshard_moved": snap.get("reshard.moved", 0.0),
        "runtime.sharding.skew": record.skew,
    }


def reference_digests(workload: Workload, arrivals, ranges) -> dict[str, reference.Digest]:
    queries = list(workload.standing) + [query for _, _, query in workload.adhoc]
    if workload.window_kind == "count":
        return reference.count_window_digests(
            arrivals, queries, workload.modular_threshold, workload.key_domain
        )
    return reference.time_window_digests(arrivals, queries, ranges)


def workload_checks(workload: Workload, record: Round) -> list[str]:
    """Properties a workload must show for its measurements to mean anything."""
    found = []
    if workload.memory_budget_bytes is not None:
        if not record.snapshot.get("observations.spill.segments"):
            found.append("the budgeted session wrote no spill segments")
        if not record.snapshot.get("observations.spill.cold_reads"):
            found.append("the budgeted session read no cold rows")
    if workload.planner:
        if not any(new > old for old, new in record.reshards):
            found.append("the elastic session never grew")
        if not any(new < old for old, new in record.reshards):
            found.append("the elastic session never shrank")
    return found


def setup_seconds(workload: Workload) -> float:
    """Median set-up time of fresh processes: import, build, admit."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload.name],
            capture_output=True, text=True, timeout=120, check=True, cwd=str(ROOT),
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def measure(args, workload: Workload) -> dict:
    arrivals = workload.arrivals(args.seed)
    polls = workload.polls(arrivals)
    setup = None if args.trace or args.rounds else setup_seconds(workload)
    import_repro()
    tracer = tracing.Tracer() if args.trace else None
    rss = RssProbe()
    rounds: list[Round] = []
    spill_dir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    spill_dir.mkdir(parents=True, exist_ok=True)
    spread_inodes(spill_dir)
    tempfile.tempdir = str(spill_dir)  # spill segments stay inside the checkout
    try:
        gc.collect()
        base_rss = rss.read()
        rss.peak = base_rss
        measured = 0.0
        while True:
            if args.rounds:
                if len(rounds) >= args.rounds:
                    break
            else:
                plain = sum(not r.traced for r in rounds)
                traced_done = any(r.traced for r in rounds) or not args.trace
                if measured >= args.seconds and plain >= MIN_ROUNDS and traced_done:
                    break
            # The traced run alternates plain and traced rounds, so its
            # overhead is measured against neighbours in time.
            traced = bool(args.trace) and len(rounds) % 2 == 1
            began = time.perf_counter()
            record = run_round(workload, arrivals, polls, rss, tracer if traced else None)
            measured += time.perf_counter() - began
            print(
                f"round {len(rounds)}: traced={traced} busy={record.busy:.3f}s "
                f"polls={record.polls} failed={record.failed}",
                file=sys.stderr,
            )
            rounds.append(record)
            if record.failed:
                break
    finally:
        rss.close()
        tempfile.tempdir = None
        shutil.rmtree(spill_dir, ignore_errors=True)
        try:
            spill_dir.parent.rmdir()
        except OSError:
            pass

    problems: list[str] = []
    failed = sum(r.failed for r in rounds)
    attempted = sum(r.operations for r in rounds)
    good = [r for r in rounds if not r.failed]
    if good:
        want = reference_digests(workload, arrivals, good[0].ranges)
        for index, record in enumerate(good):
            wrong = reference.problems(record.digests, want)
            wrong += workload_checks(workload, record)
            if wrong:
                problems += [f"round {index}: {p}" for p in wrong]
                record.failed = record.operations
                failed += record.operations
        first = good[0].deterministic()
        for index, record in enumerate(good[1:], 1):
            if record.deterministic() != first:
                problems.append(f"round {index}: deterministic results differ from round 0")
    problems += reference.self_test(arrivals)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    plain = [r for r in rounds if not r.traced and not r.failed]
    traced = [r for r in rounds if r.traced and not r.failed]
    result = {
        "correct": not problems and bool(good),
        "attempted": attempted,
        "failed": failed,
    }
    if args.fingerprint:
        record = traced[0] if traced else good[0]
        counts = layer_counts(record, len(arrivals))
        result["fingerprint"] = dict(record.deterministic(), counts=counts)
    if args.trace:
        result["metrics"] = layer_metrics(traced, plain, len(arrivals))
        if args.spans_out and tracer is not None:
            tracer.write(args.spans_out)
    else:
        result["metrics"] = end_to_end(plain, len(arrivals), rss.peak - base_rss, setup)
    return result


def end_to_end(rounds: list[Round], arrivals: int, rss_growth: int, setup) -> dict:
    if not rounds:
        return {}
    # Every round repeats the same polls, so a poll's latency is its median
    # over the rounds: pauses the input causes recur in every round and are
    # kept, while a one-off stall of the machine is not.
    per_poll = [statistics.median(lats) for lats in zip(*(r.latencies for r in rounds))]
    cuts = statistics.quantiles(per_poll, n=100)
    first = rounds[0].deterministic()
    values = {
        "throughput_tps": arrivals * len(rounds) / sum(r.busy for r in rounds),
        "latency_p50_ms": cuts[49] * 1e3,
        "latency_p99_ms": cuts[98] * 1e3,
        "rss_peak_mb": rss_growth / 2**20,
        "service_rate": first["service_rate"],
        "state_tuples_avg": first["state_tuples_avg"],
    }
    if setup is not None:
        values["setup_s"] = setup
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS if name in values}


def layer_metrics(traced: list[Round], plain: list[Round], arrivals: int) -> dict:
    if not traced:
        return {}
    metrics = {}
    for name, spans in LAYER_TIMES.items():
        value = statistics.median(sum(r.self_ms.get(s, 0.0) for s in spans) for r in traced)
        metrics[name] = {"value": value, "unit": "ms"}
    for name, value in layer_counts(traced[0], arrivals).items():
        metrics[name] = {"value": value, "unit": LAYER_COUNT_UNITS[name]}
    if plain:
        overhead = statistics.median(r.busy for r in traced) / statistics.median(
            r.busy for r in plain
        )
        metrics["trace.overhead_pct"] = {"value": (overhead - 1) * 100, "unit": "%"}
    return metrics


def check_determinism(args, workload: Workload) -> int:
    """Fingerprint one seed under several hash seeds and compare."""
    prints = []
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
             "--seed", str(args.seed), "--rounds", "2", "--trace", "1", "--fingerprint"],
            capture_output=True, text=True, timeout=170, env=env, cwd=str(ROOT),
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        prints.append(json.loads(done.stdout.strip().splitlines()[-1])["fingerprint"])
    same = all(p == prints[0] for p in prints[1:])
    print(json.dumps({"workload": workload.name, "seed": args.seed, "deterministic": same}))
    if not same:
        print("program fault: deterministic outputs differ across runs / hash seeds",
              file=sys.stderr)
    return 0 if same else 1


def main(argv=None) -> int:
    if "PYTHONHASHSEED" not in os.environ:
        # String hashing decides dict collision patterns throughout the
        # interpreter and moved throughput by about 10% between otherwise
        # identical processes; pin it unless the caller chose a value.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(HERE / "run.py")] + sys.argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds instead of --seconds")
    parser.add_argument("--spans-out", help="write the last traced round's spans here (JSON)")
    parser.add_argument("--fingerprint", action="store_true",
                        help="add the deterministic outputs to the result")
    parser.add_argument("--check-determinism", action="store_true",
                        help="compare fingerprints across runs and PYTHONHASHSEED values")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.check_determinism:
        return check_determinism(args, workload)
    result = measure(args, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
