#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload flow_large --seed 1 --seconds 20 --trace 0

Builds the harness (perfbench/CMakeLists.txt, placer sources from ../src)
into $CARGO_TARGET_DIR or .bench_build, generates the workload's inputs from
--seed in one process, measures them in a second one, reduces the raw samples
to metrics, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md for the definitions and the workload rationale). Build
output and a readable summary go to stderr. Exits non-zero, printing no
result, when the build or the measurement fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import stats as S  # noqa: E402

WORKLOADS = ("flow_large", "gp_fine_grid", "serve_mix")
DEADLINE_S = 175.0  # the whole run, build excluded, must end within 180 s

END_TO_END = {
    "setup_s": "s", "gp_s": "s", "flow_s": "s", "legal_hpwl": "dbu",
    "peak_rss_mb": "MB", "ok_frac": "frac", "e2e_p50_s": "s",
    "e2e_p90_s": "s", "cpu_s_per_job": "s",
}

PER_LAYER = {
    "io.parse_s": "s", "core.init_s": "s", "core.gp_s": "s",
    "core.gp_iters": "count", "core.gp_ms_per_iter": "ms",
    "core.gp_residual_s": "s",
    "ops.wl_s": "s", "ops.wl_us_per_call": "us", "ops.wl_speedup_4t": "x",
    "ops.scatter_s": "s", "ops.scatter_us_per_call": "us",
    "ops.scatter_speedup_4t": "x",
    "ops.gather_s": "s", "ops.gather_us_per_call": "us",
    "ops.gather_speedup_4t": "x",
    "ops.density_pass_ratio": "frac", "ops.gp_share": "frac",
    "fft.solve_s": "s", "fft.solve_us_per_call": "us",
    "fft.solve_speedup_4t": "x", "fft.bytes_per_call": "bytes_computed",
    "fft.gp_share": "frac",
    "tensor.launches_per_iter": "count",
    "util.pool_busy_frac": "frac", "util.pool_dispatches_per_iter": "count",
    "lg.abacus_s": "s", "lg.failed_cells": "count", "lg.avg_disp": "dbu",
    "dp.s": "s", "dp.global_swap_s": "s", "dp.ism_s": "s",
    "dp.local_reorder_s": "s", "dp.replay_self_s": "s",
    "dp.moves_accepted": "count", "dp.hpwl_gain_frac": "frac",
    "server.queue_wait_p50_s": "s", "server.queue_wait_p90_s": "s",
    "server.run_p50_s": "s", "server.handoff_p50_s": "s",
    "server.slot_busy_frac": "frac", "server.design_parses": "count",
    "server.design_hit_ratio": "frac", "server.design_lookups": "count",
    "bench.gen_late_p90_s": "s", "bench.trace_overhead_frac": "frac",
    "bench.e2e_samples": "count",
}

# GP kernel -> layer, as the harness labels them.
LAYERS = ("ops.wl", "ops.scatter", "ops.gather", "fft.solve")
# Traffic estimate of one Poisson solve (same model as bench_micro_ops):
# dct2 4 grids + spectral scale 4 + ex/ey syntheses 8, 8 bytes per bin.
FFT_GRIDS_PER_SOLVE = 16


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---- build & run ------------------------------------------------------------

def out_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def sh(cmd, timeout, env=None):
    r = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                       stderr=sys.stderr, timeout=timeout, env=env,
                       check=False)
    if r.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} exited {r.returncode}")


def build():
    bdir = out_dir() / "perfbench-cmake"
    if not any((bdir / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", HERE, "-B", bdir, *gen,
            "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    sh(["cmake", "--build", bdir, "--target", "perfbench_xbench",
        "-j", "4"], timeout=840)
    return bdir / "perfbench_xbench"


def measure(binary, args):
    work = out_dir() / "perfbench-work" / \
        f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(work))
    t0 = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    try:
        sh([binary, "prepare", *common], timeout=60, env=env)
        result = work / "result.json"
        left = DEADLINE_S - (time.monotonic() - t0)
        sh([binary, "measure", *common, "--seconds", str(args.seconds),
            "--trace", "1" if args.trace else "0", "--out", result],
           timeout=left, env=env)
        with open(result) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---- reduction --------------------------------------------------------------

def finite(values):
    return [v for v in values if v is not None and math.isfinite(v)]


def med(values, default=0.0):
    values = finite(values)
    return S.median(values) if values else default


def flow_e2e(f):
    return f["parse_s"] + f["init_s"] + f["gp_s"] + f["lg_s"] + f["dp_s"]


def job_latencies(jobs, window):
    """Due → seen per job; a job that failed or was refused counts as the
    whole measurement window (it missed any latency limit)."""
    return [j["seen_s"] - j["due_s"] if j["ok"] else window for j in jobs]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failures.append(why)

    def extra(self, ok, why):
        """A check on an already-counted request: fails it, adds no attempt."""
        if not ok:
            self.failures.append(why)


def end_to_end_flow(d, tally):
    flows = d["flows"]
    for f in flows:
        tally.check(f["ok"], f["why"])
    setup = [s["parse_s"] + s["init_s"] for s in d["setup"]]
    setup += [f["parse_s"] + f["init_s"] for f in flows]
    e2e = [flow_e2e(f) for f in flows]
    p90, pct, n = S.tail(e2e, 0.9)
    log(f"e2e: {n} flow requests; p90 reports the p{pct * 100:.0f} "
        "(nearest rank, >= 10 samples beyond it)")
    ok = [f for f in flows if f["ok"]] or flows
    return {
        "setup_s": med(setup),
        "gp_s": med(f["gp_s"] for f in flows),
        "flow_s": med(f["gp_s"] + f["lg_s"] + f["dp_s"] for f in flows),
        "legal_hpwl": med(f["hpwl"] for f in ok),
        "peak_rss_mb": d["peak_rss_mb"],
        "e2e_p50_s": med(e2e),
        "e2e_p90_s": p90,
        "cpu_s_per_job": d["cpu_s"] / len(flows),
    }


def check_parity(d, tally):
    for p in d["parity"]:
        tally.extra(p["equal"], f"served dp_hpwl {p['served']!r} != one-shot "
                                f"{p['oneshot']!r}")


def end_to_end_serve(d, tally):
    jobs = d["jobs"]
    for j in jobs:
        tally.check(j["ok"], j["why"])
    check_parity(d, tally)
    ok = [j for j in jobs if j["ok"]] or [j for j in jobs if "gp_s" in j]
    e2e = job_latencies(jobs, d["measure_s"])
    p90, pct, n = S.tail(e2e, 0.9)
    log(f"e2e: {n} jobs; p90 reports the p{pct * 100:.0f} (nearest rank)")
    hpwl = finite(j.get("dp_hpwl") for j in ok)
    return {
        "setup_s": med(s["server_s"] for s in d["setup"]),
        "gp_s": med(j["gp_s"] for j in ok),
        "flow_s": med(j["finished_s"] - j["started_s"] for j in ok),
        "legal_hpwl": math.fsum(hpwl) / len(hpwl) if hpwl else 0.0,
        "peak_rss_mb": d["peak_rss_mb"],
        "e2e_p50_s": med(e2e),
        "e2e_p90_s": p90,
        "cpu_s_per_job": d["cpu_s"] / max(1, len(ok)),
    }


def per_call(kernel, threads):
    """Seconds per call: per-point medians, averaged over the points."""
    points = kernel[str(threads)]
    return math.fsum(S.median(c) for c in points) / len(points)


def gp_layers(L):
    """GP layer attribution of the traced reference flow."""
    ref = L["reference"]
    kernels = L["kernels"]
    launches = {k: ref["launches"].get(v["op"], 0) for k, v in kernels.items()}
    layer_of = {k: v["layer"] for k, v in kernels.items()}
    by_threads = {
        t: S.attribute(ref["gp_s"],
                       {k: per_call(v, t) for k, v in kernels.items()},
                       launches, layer_of)
        for t in (1, 4)}
    layers, residual = by_threads[L["threads"]]
    layers1, layers4 = by_threads[1][0], by_threads[4][0]
    calls = {}
    for k, layer in layer_of.items():
        calls[layer] = calls.get(layer, 0) + launches[k]
    iters = ref["iters"]
    gp = ref["gp_s"]
    m = {
        "core.gp_s": gp,
        "core.gp_iters": iters,
        "core.gp_ms_per_iter": 1e3 * gp / iters,
        "core.gp_residual_s": residual,
    }
    for layer in LAYERS:
        m[f"{layer}_s"] = layers.get(layer, 0.0)
        m[f"{layer}_us_per_call"] = 1e6 * layers.get(layer, 0.0) / max(
            1, calls.get(layer, 0))
        m[f"{layer}_speedup_4t"] = layers1.get(layer, 0.0) / layers4[layer] \
            if layers4.get(layer) else 0.0
    m["ops.gp_share"] = sum(layers[x] for x in LAYERS[:3]) / gp
    m["fft.gp_share"] = layers["fft.solve"] / gp
    m["ops.density_pass_ratio"] = ref["launches"].get("es.dct2", 0) / iters
    m["fft.bytes_per_call"] = FFT_GRIDS_PER_SOLVE * 8 * L["grid"] ** 2
    m["tensor.launches_per_iter"] = ref["launches_total"] / iters
    m["util.pool_busy_frac"] = ref["pool_busy_s"] / (ref["pool_size"] * gp) \
        if ref["pool_size"] > 1 else 0.0
    m["util.pool_dispatches_per_iter"] = ref["pool_dispatches"] / iters
    m["lg.abacus_s"] = ref["lg_s"]
    m["lg.failed_cells"] = ref["lg_failed"]
    m["lg.avg_disp"] = ref["lg_avg_disp"]
    r = L["dp_replay"]
    m["dp.s"] = ref["dp_s"]
    m["dp.global_swap_s"] = math.fsum(r["global_swap_s"])
    m["dp.ism_s"] = math.fsum(r["ism_s"])
    m["dp.local_reorder_s"] = math.fsum(r["local_reorder_s"])
    m["dp.moves_accepted"] = ref["dp_moves"]
    m["dp.hpwl_gain_frac"] = (ref["dp_hpwl_before"] - ref["hpwl"]) / \
        ref["dp_hpwl_before"]
    m["bench.trace_overhead_frac"] = \
        flow_e2e(L["captured"]) / flow_e2e(ref) - 1.0
    return m


def server_layers(jobs, slots, stats):
    ran = [j for j in jobs if j.get("started_s", 0) > 0]
    window = max(j["seen_s"] for j in jobs) - min(j["due_s"] for j in jobs)
    lookups = stats["design_parses"] + stats["design_cache_hits"]
    return {
        "server.queue_wait_p50_s": med(j["started_s"] - j["submitted_s"]
                                       for j in ran),
        "server.queue_wait_p90_s": S.tail([j["started_s"] - j["submitted_s"]
                                           for j in ran], 0.9)[0],
        "server.run_p50_s": med(j["finished_s"] - j["started_s"] for j in ran),
        "server.handoff_p50_s": med(j["seen_s"] - j["finished_s"] for j in ran),
        "server.slot_busy_frac": math.fsum(
            j["finished_s"] - j["started_s"] for j in ran) / (slots * window),
        "server.design_parses": stats["design_parses"],
        "server.design_hit_ratio": stats["design_cache_hits"] / lookups
        if lookups else 0.0,
        "server.design_lookups": lookups,
        "bench.gen_late_p90_s": S.tail([j["submit_s"] - j["due_s"]
                                        for j in jobs], 0.9)[0],
        "bench.e2e_samples": len(jobs),
    }


def span_self(spans, name):
    return math.fsum(S.self_time(spans, i) for i, s in enumerate(spans)
                     if s["name"] == name)


def per_layer(d, tally):
    L = d["layers"]
    for f in L["references"] + [L["captured"]]:
        tally.check(f["ok"], f"traced flow: {f['why']}")
    tally.extra(L["same_trajectory"],
                "position capture changed the GP trajectory")
    tally.extra(L["dp_replay"]["matches_flow"],
                "pass-by-pass DP replay differs from detailed_place")
    m = gp_layers(L)
    m["dp.replay_self_s"] = span_self(d["spans"], "dp.replay")
    if d["kind"] == "flow":
        srv = d["server"]
        for j in srv["jobs"]:
            tally.check(j["ok"], f"served flow: {j['why']}")
        check_parity(srv, tally)
        m["io.parse_s"] = med(s["parse_s"] for s in d["setup"])
        m["core.init_s"] = med(s["init_s"] for s in d["setup"])
        m.update(server_layers(srv["jobs"], srv["slots"], srv["stats"]))
    else:
        for j in d["jobs"]:
            tally.check(j["ok"], j["why"])
        check_parity(d, tally)
        m["io.parse_s"] = L["reference"]["parse_s"]
        m["core.init_s"] = L["reference"]["init_s"]
        m.update(server_layers(d["jobs"], d["slots"], d["stats"]))
    return m


def report(d, trace):
    tally = Tally()
    if trace:
        values, units = per_layer(d, tally), PER_LAYER
    else:
        reduce = end_to_end_serve if d["kind"] == "serve" else end_to_end_flow
        values, units = reduce(d, tally), END_TO_END
        values["ok_frac"] = 1.0 - len(tally.failures) / tally.attempted
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not computed: {sorted(missing)}")
    for why in tally.failures:
        log(f"FAILED: {why}")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": float(values[k]), "unit": u}
                    for k, u in units.items()},
    }


def save_spans(d, args):
    if "spans" not in d:
        return
    path = out_dir() / "perfbench-spans" / f"{args.workload}-s{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(d["spans"], f)
    log(f"spans: {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        binary = build()
        d = measure(binary, args)
        save_spans(d, args)
        result = report(d, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError, TypeError, ZeroDivisionError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1
    for k, v in result["metrics"].items():
        log(f"  {k:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
