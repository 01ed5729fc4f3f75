"""fullness-lab benchmark: a closed loop of seeded problems through cli.run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one request at a time and waits for the answer; a single
serving process (``worker.py``) computes it.  Request times are CPU seconds
of the serving process (user + system), scaled to the host's quiet speed by
the probe in ``speed.py``: on a shared virtual machine the wall time of the
same run moves with the time the hypervisor steals, which CPU time leaves
out, and the CPU time moves with what other tenants run, which the scale
takes out.  Unscaled CPU and wall-clock figures are printed beside them.
Requests come in cycles, each
a fixed mix of request shapes with seeded values and order; the run keeps
starting whole cycles while the mean cycle time so far says the next one
ends within --seconds, and every statistic is taken over those whole cycles.
Every answer is checked.  The last line of output is one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed
import stats
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPS = 9
PREGENERATED_CYCLES = 4
# peak_rss_mb is read after the warm-up and this many cycles: the memo grows
# with every request served, and the number of cycles in a run follows the
# host's speed
RSS_CYCLES = 2

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(Exception):
    pass


class Worker:
    """One serving process, spoken to over pipes."""

    def __init__(self, traced: bool):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT]
        if traced:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )
        ready = self._read()
        if not ready.get("ready"):
            raise WorkerError("serving process did not report ready")
        self.ready_cpu_s = ready["cpu_s"]
        self.ready_scaled_s = ready["cpu_s"] * ready["scale"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise WorkerError(f"serving process exited (code {self.proc.returncode})")
        return json.loads(line)

    def call(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.close()
            raise WorkerError("serving process is gone") from None
        return self._read()

    def finish(self) -> dict:
        out = self.call({"op": "finish"})
        self.close()
        return out

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


def import_library():
    """Import fullness_lab from this checkout's src/, and only from there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import fullness_lab
    from fullness_lab import corpus

    where = os.path.realpath(fullness_lab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"fullness_lab imported from {where}, not from {src}")
    return corpus


class Run:
    def __init__(self, workload_cls, seed: int, seconds: float, traced: bool, corpus):
        self.cls = workload_cls
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.corpus = corpus
        self.tally = stats.Tally()
        self.latencies: list[float] = []  # scaled CPU seconds per measured request
        self.raw: list[float] = []  # the same, unscaled
        self.walls: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.kinds: list[str] = []
        self.maxrss_kb = 0
        self.rss_kb: int | None = None  # peak after RSS_CYCLES cycles
        self.trace: dict = {}
        self.cache = {"ring_cache_entries": 0, "memo_entries": 0}
        self.spans: list = []
        self.worker: Worker | None = None

    # -- set-up ------------------------------------------------------------
    def setup(self) -> tuple[list[float], list[float]]:
        """Generate inputs and start a serving process, SETUP_REPS times;
        the last serving process is kept for long-lived workloads.  Returns
        the scaled CPU seconds of each set-up (input generation here plus the
        serving process's own start-up and imports) and its wall seconds."""
        probe = speed.Probe()
        try:
            return self._setup(probe)
        finally:
            probe.stop()

    def _setup(self, probe: speed.Probe) -> tuple[list[float], list[float]]:
        cpu, wall = [], []
        for rep in range(SETUP_REPS):
            probe.restart()
            t0, c0 = time.perf_counter(), time.thread_time()
            workload = self.cls(self.corpus)
            warmup = workload.warmup(self.seed)
            cycles = [workload.cycle(self.seed, j) for j in range(PREGENERATED_CYCLES)]
            generated = (time.thread_time() - c0 - probe.spent_s) * probe.scale()
            worker = Worker(self.traced)
            wall.append(time.perf_counter() - t0)
            cpu.append(generated + worker.ready_scaled_s)
            if self.cls.long_lived and rep == SETUP_REPS - 1:
                self.worker = worker
            else:
                worker.close()
        self.workload, self.warmup, self.cycles = workload, warmup, cycles
        return cpu, wall

    # -- serving -----------------------------------------------------------
    def _absorb(self, fin: dict):
        self.maxrss_kb = max(self.maxrss_kb, fin.get("maxrss_kb", 0))
        if "trace" in fin:
            tracing.merge(self.trace, fin["trace"])
            for key, value in fin["cache"].items():
                self.cache[key] = max(self.cache[key], value)
            self.spans.append(fin["spans"])

    def _serve(self, rid: int, req: dict) -> tuple[dict, float, float]:
        """Reply, CPU seconds and scaled CPU seconds: the long-lived
        process's time on the request, or the life of a one-shot process up
        to its answer (start-up, imports and the request), as a CLI call."""
        msg = {"op": "run", "id": rid, "problem": req["problem"]}
        if self.cls.long_lived:
            try:
                reply = self.worker.call(msg)
                return reply, reply["cpu_s"], reply["cpu_s"] * reply["scale"]
            except WorkerError as e:
                self.worker = Worker(self.traced)  # keep serving after a crash
                return {"ok": False, "error": str(e)}, 0.0, 0.0
        worker = None
        try:
            worker = Worker(self.traced)
            reply = worker.call(msg)
            self._absorb(worker.finish())
        except WorkerError as e:
            return {"ok": False, "error": str(e)}, 0.0, 0.0
        finally:
            if worker is not None:
                worker.close()
        return (reply, worker.ready_cpu_s + reply["cpu_s"],
                worker.ready_scaled_s + reply["cpu_s"] * reply["scale"])

    def _request(self, rid: int, req: dict) -> tuple[float, float, float]:
        t0 = time.perf_counter()
        reply, raw, cpu = self._serve(rid, req)
        elapsed = time.perf_counter() - t0
        if reply.get("ok"):
            reason = workloads.check_answer(self.workload, req, reply["report"])
        else:
            reason = reply.get("error", "request failed")
        self.tally.record(reason is None, f"{req['kind']}: {reason}")
        return raw, cpu, elapsed

    def serve(self) -> float:
        rid = 0
        for req in self.warmup:
            self._request(rid, req)
            rid += 1
        if self.traced and self.cls.long_lived:
            self.worker.call({"op": "reset"})
        start = time.perf_counter()
        done = 0
        while True:
            reqs = self.cycles[done] if done < len(self.cycles) else self.workload.cycle(self.seed, done)
            for req in reqs:
                raw, cpu, elapsed = self._request(rid, req)
                self.latencies.append(cpu)
                self.raw.append(raw)
                self.walls.append(elapsed)
                self.by_kind.setdefault(req["kind"], []).append(cpu)
                self.kinds.append(req["kind"])
                rid += 1
            done += 1
            if done == RSS_CYCLES:
                self.rss_kb = (self.worker.call({"op": "rss"})["maxrss_kb"]
                               if self.cls.long_lived else self.maxrss_kb)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done / 2 > self.seconds:
                break  # the whole number of cycles nearest to --seconds
        wall = time.perf_counter() - start
        if self.cls.long_lived:
            self._absorb(self.worker.finish())
        if self.rss_kb is None:
            self.rss_kb = self.maxrss_kb
        self.cycles_done = done
        return wall

    def close(self):
        if self.worker is not None:
            self.worker.close()


def robust_throughput(by_kind: dict[str, list[float]]) -> float:
    """Requests per CPU-second, with each request shape costed at its median.

    Every cycle holds the same mix, so this is the requests of the measured
    cycles over their cost shape by shape; unlike the plain mean it does not
    move when a burst of load from other machines slows a few requests."""
    n = sum(len(v) for v in by_kind.values())
    return n / sum(len(v) * statistics.median(v) for v in by_kind.values())


# -- per-layer metrics ------------------------------------------------------


def _calls(t, name):
    return t["agg"].get(name, [0, 0.0, 0.0])[0]


def _incl(t, name):
    return t["agg"].get(name, [0, 0.0, 0.0])[1]


def _self(t, name):
    return t["agg"].get(name, [0, 0.0, 0.0])[2]


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(run: Run, client_trace: dict) -> dict:
    t = run.trace
    t.setdefault("agg", {})
    c = t.setdefault("counters", {})
    n = len(run.latencies)
    per = lambda x: x / n  # noqa: E731  (per measured request)
    m = {}
    for fn in ("buchberger", "s_polynomial", "normal_form", "eliminate"):
        m[f"groebner.{fn}.calls"] = per(_calls(t, f"groebner.{fn}"))
    m["groebner.buchberger.self_s"] = per(_self(t, "groebner.buchberger"))
    m["groebner.buchberger.basis_out"] = _ratio(c.get("buchberger.basis_out", 0), _calls(t, "groebner.buchberger"))
    m["groebner.buchberger.max_degree"] = c.get("buchberger.max_degree", 0)
    m["groebner.normal_form.self_s"] = per(_self(t, "groebner.normal_form"))
    m["groebner.normal_form.zero_share"] = _ratio(c.get("normal_form.zero", 0), _calls(t, "groebner.normal_form"))
    m["groebner.eliminate.s"] = per(_incl(t, "groebner.eliminate"))
    for short, fn in (("colon", "ideal_colon"), ("intersection", "ideal_intersection"),
                      ("product", "ideal_product"), ("contains_local", "ideal_contains_local")):
        m[f"idealcalc.{short}.calls"] = per(_calls(t, f"idealcalc.{fn}"))
        m[f"idealcalc.{short}.s"] = per(_incl(t, f"idealcalc.{fn}"))
    m["idealcalc.memo_hit_ratio"] = _ratio(c.get("memo.hits", 0), c.get("memo.lookups", 0))
    m["idealcalc.memo_entries"] = run.cache["memo_entries"]
    for fn in ("is_m_full", "is_full", "is_weakly_m_full"):
        m[f"fullness.{fn}.calls"] = per(_calls(t, f"fullness.{fn}"))
        m[f"fullness.{fn}.s"] = per(_incl(t, f"fullness.{fn}"))
    m["fullness.trials_per_call"] = _ratio(c.get("predicate.trials", 0), c.get("predicate.results", 0))
    m["fullness.uncertified_share"] = _ratio(c.get("predicate.uncertified", 0), c.get("predicate.results", 0))
    m["fullness.sample_linear_form.calls"] = per(_calls(t, "fullness.sample_linear_form"))
    m["invariants.s_index.s"] = per(_incl(t, "invariants.s_index"))
    m["invariants.ratliff_rush_power.calls"] = per(_calls(t, "invariants.ratliff_rush_power"))
    m["invariants.rr_chain.terms"] = per(c.get("rr_chain.terms", 0))
    m["invariants.rr_chain.confirm_share"] = _ratio(c.get("rr_chain.confirm", 0), c.get("rr_chain.terms", 0))
    for fn in ("reduction_number", "depth_witness", "dao_numbers", "verify_statements"):
        m[f"invariants.{fn}.s"] = per(_incl(t, f"invariants.{fn}"))
    m["invariants.ring_cache.entries"] = run.cache["ring_cache_entries"]
    m["cli.run.s"] = per(_incl(t, "cli.run"))
    m["cli.build_ring.s"] = per(_incl(t, "cli.build_ring"))
    m["cli.report.s"] = per(_incl(t, "cli.run") - _incl(t, "cli._dispatch"))
    m["corpus.load.s"] = _incl(client_trace, "corpus.load") / SETUP_REPS
    m["trace.throughput_rps"] = robust_throughput(run.by_kind)
    return m


PER_LAYER = {
    **{f"groebner.{f}.calls": "calls/req" for f in ("buchberger", "s_polynomial", "normal_form", "eliminate")},
    "groebner.buchberger.self_s": "s/req",
    "groebner.buchberger.basis_out": "elements",
    "groebner.buchberger.max_degree": "degree",
    "groebner.normal_form.self_s": "s/req",
    "groebner.normal_form.zero_share": "ratio",
    "groebner.eliminate.s": "s/req",
    **{f"idealcalc.{f}.{k}": u for f in ("colon", "intersection", "product", "contains_local")
       for k, u in (("calls", "calls/req"), ("s", "s/req"))},
    "idealcalc.memo_hit_ratio": "ratio",
    "idealcalc.memo_entries": "count",
    **{f"fullness.{f}.{k}": u for f in ("is_m_full", "is_full", "is_weakly_m_full")
       for k, u in (("calls", "calls/req"), ("s", "s/req"))},
    "fullness.trials_per_call": "trials",
    "fullness.uncertified_share": "ratio",
    "fullness.sample_linear_form.calls": "calls/req",
    "invariants.s_index.s": "s/req",
    "invariants.ratliff_rush_power.calls": "calls/req",
    "invariants.rr_chain.terms": "terms/req",
    "invariants.rr_chain.confirm_share": "ratio",
    **{f"invariants.{f}.s": "s/req" for f in ("reduction_number", "depth_witness", "dao_numbers", "verify_statements")},
    "invariants.ring_cache.entries": "count",
    "cli.run.s": "s/req",
    "cli.build_ring.s": "s/req",
    "cli.report.s": "s/req",
    "corpus.load.s": "s/setup",
    "trace.throughput_rps": "1/s",
}


def coverage_gaps(workload: str, run: Run, client_trace: dict) -> list[str]:
    """Entry points expected on this workload that recorded no call."""
    gaps = []
    for table, t in ((tracing.ENTRY_POINTS, run.trace), (tracing.CLIENT_ENTRY_POINTS, client_trace)):
        for (mod, fn), expected_on in table.items():
            if workload in expected_on and _calls(t, f"{mod}.{fn}") == 0:
                gaps.append(f"{mod}.{fn}")
    return gaps


def write_spans(path: str, run: Run):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for proc, spans in enumerate(run.spans):
            for idx, (name, t0, t1, parent, rid) in enumerate(spans):
                fh.write(json.dumps([proc, idx, name, t0, t1, parent, rid]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    try:
        corpus = import_library()
    except ImportError as e:
        print(f"benchmark: cannot import fullness_lab from this checkout: {e}", file=sys.stderr)
        return 2

    client_tracer = None
    if traced:
        client_tracer = tracing.Tracer()
        client_tracer.install("fullness_lab", tracing.CLIENT_ENTRY_POINTS)

    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, traced, corpus)
    try:
        setup_cpu, setup_wall = run.setup()
        wall = run.serve()
    except WorkerError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    finally:
        run.close()

    n = len(run.latencies)
    tally = run.tally
    tail, pct = stats.tail_percentile(run.latencies)
    print(f"workload {args.workload}  seed {args.seed}  cycles {run.cycles_done}  "
          f"measured requests {n}  traced {traced}")
    print(f"mean throughput {n / sum(run.latencies):.4f} requests per scaled CPU second, "
          f"{n / sum(run.raw):.4f} per unscaled CPU second")
    print(f"wall clock: {wall:.3f} s, {n / wall:.4f} requests/s, median request "
          f"{statistics.median(run.walls):.4f} s")
    print(f"failed_share = {tally.failed_share} ({tally.failed} of {tally.attempted} attempted,"
          " warm-up requests included)")
    print("median latency by request shape: " + ", ".join(
        f"{kind} {statistics.median(v):.3f} s" for kind, v in sorted(run.by_kind.items())))
    for reason in tally.reasons[:10]:
        print(f"  FAILED {reason}", file=sys.stderr)

    throughput = robust_throughput(run.by_kind)
    os.makedirs(OUT_DIR, exist_ok=True)
    last = os.path.join(OUT_DIR, f"untraced-{args.workload}.json")
    if traced:
        client_trace = client_tracer.snapshot()
        metrics = per_layer_metrics(run, client_trace)
        units = PER_LAYER
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        write_spans(spans_path, run)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}; "
              f"ring_cache.entries {run.cache['ring_cache_entries']}, "
              f"memo_entries {run.cache['memo_entries']}")
        if os.path.exists(last):
            with open(last, encoding="utf-8") as fh:
                ref = json.load(fh)
            print(f"tracing overhead: traced throughput {throughput:.4f} rps, last untraced "
                  f"run of this workload here (seed {ref['seed']}) {ref['throughput_rps']:.4f} rps, "
                  f"ratio {throughput / ref['throughput_rps']:.3f}")
        gaps = coverage_gaps(args.workload, run, client_trace)
        if gaps:
            print(f"benchmark: wrapped entry points recorded no call: {', '.join(gaps)}",
                  file=sys.stderr)
    else:
        gaps = []
        metrics = {
            "throughput_rps": throughput,
            "latency_p50_s": statistics.median(run.latencies),
            "latency_tail_s": tail,
            "setup_s": statistics.median(setup_cpu),
            "peak_rss_mb": run.rss_kb / 1024,
        }
        units = END_TO_END
        print(f"latency_tail_s is p{pct:.1f} of {n} samples (highest percentile with "
              f"at least {stats.TAIL_MIN_BEYOND} samples beyond it)")
        print(f"setup_s is the median scaled CPU time of {SETUP_REPS} set-ups: "
              + ", ".join(f"{s:.4f}" for s in setup_cpu)
              + "; wall " + ", ".join(f"{s:.4f}" for s in setup_wall))
        with open(last, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "throughput_rps": throughput}, fh)
        with open(os.path.join(OUT_DIR, f"requests-{args.workload}-seed{args.seed}.jsonl"),
                  "w", encoding="utf-8") as fh:
            for row in zip(run.kinds, run.latencies, run.raw, run.walls):
                fh.write(json.dumps(row) + "\n")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")

    correct = tally.failed == 0 and not gaps
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not gaps else 1

if __name__ == "__main__":
    sys.exit(main())
