"""Closed-loop batch benchmark of padicasai.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs the workload's jobs back to back in this process (the next
job starts when the previous one is done; workers=1, no multiprocessing) in
whole passes, at least two, until S seconds have passed.  Every job ends with
an exact oracle check; at the default seed the digest of the first pass's
outputs must also match bench/digests.json.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  End-to-end times are in
nominal seconds: wall seconds corrected for the machine's speed, which
bench/speedref.py measures during the run.  See bench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speedref  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("hecke_freeness", "zeta_primes", "chain_certify", "coset_labels")
DEFAULT_SEED = 0
EXTRA_SETUPS = 4  # extra fresh-process set-ups; setup_s is the median of 1 + these
# job_p50_s and job_tail_s rank the jobs of the first two passes, so every
# run ranks the same job mix whatever the machine's speed
RANKED_PASSES = 2


def load_workloads():
    """Import padicasai from this checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH)]
    import padicasai

    if Path(padicasai.__file__).resolve().parent != (src / "padicasai").resolve():
        raise ImportError(f"padicasai was imported from {padicasai.__file__}, not from {src}")
    import workloads

    return workloads


def run_job(job):
    """(output, oracle passed, start, end, info)."""
    t = time.perf_counter()
    try:
        out, ok, info = job.run()
    except Exception as exc:  # a job that raises is a failed job, not a failed benchmark
        out, ok, info = f"{type(exc).__name__}: {exc}", False, {}
    return out, bool(ok), t, time.perf_counter(), info


def _same_coset(g, h, split: bool) -> bool:
    """g GL2(O_F) == h GL2(O_F); componentwise GL2(Z_p) in the split case."""
    if split:
        return all((a.inv() * b).in_K_base() for a, b in zip(g, h))
    return (g.inv() * h).in_KF()


def coset_profile(vec) -> tuple[int, int]:
    """(terms, terms whose coset repeats an earlier term's coset)."""
    split = vec.case == "split"
    reps: list = []
    dups = 0
    for _, g, _ in vec.terms:
        if any(_same_coset(r, g, split) for r in reps):
            dups += 1
        else:
            reps.append(g)
    return len(vec.terms), dups


def closed_loop(pool, seconds: float, min_passes: int, tracer=None, observed=None):
    """Run whole passes, at least `min_passes`, until `seconds` have passed.
    Stopping only at a pass boundary keeps the job mix of a run fixed, so a
    multi-second job cannot fall in or out of a run by a few milliseconds.
    A job repeated in a later pass must give the same output as in the first.
    With a tracer every job runs untraced and traced (alternating which goes
    first) and must give the same output; `observed` holds the vectors the
    traced job passed to local_factor."""
    records = []  # (kind, start, end, ok, info)
    first_pass = []
    traced_s = untraced_s = 0.0
    start = time.perf_counter()
    i = 0
    while i < min_passes * len(pool) or i % len(pool) or time.perf_counter() - start < seconds:
        job = pool[i % len(pool)]
        if tracer is None:
            out, ok, t0, t1, info = run_job(job)
        else:
            res = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with tracer.active(i):
                        res[traced] = run_job(job)
                else:
                    res[traced] = run_job(job)
            out, ok, t0, t1, _ = res[False]
            t_out, t_ok, t_t0, t_t1, info = res[True]
            ok = ok and t_ok and t_out == out
            untraced_s += t1 - t0
            traced_s += t_t1 - t_t0
            info = dict(info, vectors=[coset_profile(v) for v in observed])
            observed.clear()
        if i < len(pool):
            first_pass.append(out)
        elif out != first_pass[i % len(pool)]:
            ok = False  # a repeated job must reproduce its first output byte for byte
        records.append((job.kind, t0, t1, ok, info))
        i += 1
    wall = time.perf_counter() - start
    digest = hashlib.sha256("\n".join(first_pass).encode()).hexdigest()
    return records, wall, digest, (traced_s / untraced_s if untraced_s else 0.0)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of the job times that
    still has ten jobs beyond it."""
    s = sorted(times)
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def input_digest(pool) -> str:
    return hashlib.sha256("\n".join(job.describe() for job in pool).encode()).hexdigest()


def fresh_setups(args) -> list[dict]:
    """Set up the same workload in fresh processes; each reports its set-up
    time and the digest of the inputs it generated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(EXTRA_SETUPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def source_meta() -> dict:
    src = ROOT / "src" / "padicasai"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine: the source digest still identifies the code
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": h.hexdigest(),
    }


def per_layer(tracer, records, overhead: float) -> dict[str, tuple[float, str]]:
    m = tracer.layer_metrics()
    routes = [info["route"] for *_, info in records if "route" in info]
    chain = sum(1 for r in routes if r == "chain")
    m["heckealg.cert_route_chain_share"] = (chain / len(routes) if routes else 0.0, "ratio")
    m["heckealg.cert_route.base"] = (len(routes), "count")
    profiles = [pr for *_, info in records for pr in info["vectors"]]
    terms = [t for t, _ in profiles]
    dups = sum(d for _, d in profiles)
    m["heckemod.terms_per_vector.mean"] = (sum(terms) / len(terms) if terms else 0.0, "count")
    m["heckemod.terms_per_vector.max"] = (max(terms, default=0), "count")
    m["heckemod.coset_dup_share"] = (dups / sum(terms) if terms else 0.0, "ratio")
    m["heckemod.coset_dup_share.base"] = (sum(terms), "count")
    m["trace.jobs"] = (len(records), "count")
    m["trace_overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    speed = speedref.SpeedLog()
    if not args.trace:
        speed.start()  # probes run from here to the end of the timed loop
    try:
        try:
            workloads = load_workloads()
        except ImportError as exc:
            sys.stderr.write(f"bench: cannot import padicasai from this checkout: {exc}\n")
            return 2
        pool = workloads.build(args.workload, args.seed)
        setup_end = time.perf_counter()
        if args.setup_only:
            speed.probe()  # a probe after the set-up, for the probes around its end
            print(json.dumps({"setup_s": setup_end - _T0, "setup_nominal_s": speed.nominal(_T0, setup_end),
                              "inputs": input_digest(pool)}))
            return 0

        tracer = None
        observed: list = []
        if args.trace:
            import spans

            tracer = spans.Tracer({"heckemod.local_factor": lambda a, out: observed.append(a[0])})
        records, wall, digest, overhead = closed_loop(pool, args.seconds, 1 if args.trace else RANKED_PASSES,
                                                      tracer, observed)
    finally:
        speed.stop()
    failed = sum(1 for *_, ok, _ in records if not ok)
    expected = json.loads((BENCH / "digests.json").read_text()).get(args.workload)
    digest_ok = args.seed != DEFAULT_SEED or digest == expected

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "meta": source_meta(),
        "jobs": len(records),
        "ranked_jobs": RANKED_PASSES * len(pool) if not args.trace else None,
        "pass_jobs": len(pool),
        "loop_s": wall,
        "fail_ratio": {"failed": failed, "attempted": len(records), "value": failed / len(records)},
        "output_digest": {"sha256": digest, "expected": expected if args.seed == DEFAULT_SEED else None,
                          "ok": digest_ok},
        "per_kind": {},
    }
    for kind in sorted({k for k, *_ in records}):
        ts = [t1 - t0 for k, t0, t1, _, _ in records if k == kind]
        report["per_kind"][kind] = {
            "jobs": len(ts),
            "median_wall_s": statistics.median(ts),
            "failed": sum(1 for k, _, _, ok, _ in records if k == kind and not ok),
        }

    inputs_ok = True
    if tracer is None:
        times = [speed.nominal(t0, t1) for _, t0, t1, _, _ in records]
        ranked = times[: RANKED_PASSES * len(pool)]
        tail_s, tail_pct = tail(ranked)
        runs = fresh_setups(args)
        inputs = input_digest(pool)
        inputs_ok = all(r["inputs"] == inputs for r in runs)
        setups = [(setup_end - _T0, speed.nominal(_T0, setup_end))]
        setups += [(r["setup_s"], r["setup_nominal_s"]) for r in runs]
        report["input_digest"] = {"sha256": inputs, "repeats_in_fresh_processes": inputs_ok}
        report["job_tail_percentile"] = tail_pct
        report["speed"] = {
            "probes": len(speed.took),
            "probe_median_s": statistics.median(speed.took),
            "nominal_probe_s": speedref.NOMINAL_S,
        }
        report["wall"] = {
            "jobs_per_s": len(records) / sum(t1 - t0 for _, t0, t1, _, _ in records),
            "job_p50_s": statistics.median(t1 - t0 for _, t0, t1, _, _ in records[: len(ranked)]),
            "setup_s": statistics.median(t for t, _ in setups),
            "setup_runs_s": [t for t, _ in setups],
        }
        metrics = {
            "jobs_per_s": (len(records) / sum(times), "1/s"),
            "job_p50_s": (statistics.median(ranked), "s"),
            "job_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(n for _, n in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = per_layer(tracer, records, overhead)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.tsv"
        tracer.write_spans(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"report": report}, sort_keys=True))
    correct = failed == 0 and digest_ok and inputs_ok
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
