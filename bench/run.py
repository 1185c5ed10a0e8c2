"""jumppipe benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload loso-fold --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports jumppipe from `src/`.
With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` the same pass is repeated with every layer wrapped (see
tracer.py) and the line carries the per-layer metrics and tracing overhead.
Lines before it are a readable table and a JSON run record (machine, code
identity, output digests). Exits 1 without a result if jumppipe's source is
missing or no unit of work succeeded.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TIMINGS = ("setup_s", "op_s", "op_tail_s")


def _fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(1)


def tail(values):
    """(value, label): the highest percentile with at least ten samples
    beyond it, or the maximum when there are fewer than twenty samples."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return float(np.percentile(values, p)), f"p{p}"
    return float(max(values)), "max"


def run_pass(workload, seconds, log, indices=None):
    """Run ops 0, 1, ... until their summed time reaches `seconds` (at least
    one op), or exactly the ops in `indices`. A failed op's time counts too.
    Returns ([(index, OpResult)], attempted, failed)."""
    results, attempted, failed, busy = [], 0, 0, 0.0
    for index in indices if indices is not None else itertools.count():
        if indices is None and attempted and busy >= seconds:
            break
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = workload.op(index)
        except Exception:
            failed += 1
            busy += time.perf_counter() - t0
            log(f"op {index} failed:\n{traceback.format_exc()}")
            continue
        results.append((index, result))
        busy += result.times["op_s"]
    return results, attempted, failed


def pass_digest(results):
    """sha256 over the output digests of a pass, in op order."""
    return hashlib.sha256(
        "".join(r.digest for _, r in results).encode()).hexdigest()


def timed_setups(workload, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def summarize(setup_times, results):
    """End-to-end metric name -> (value, unit, samples)."""
    ops = [r.times["op_s"] for _, r in results]
    tail_s, tail_label = tail(ops)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "op_s": (statistics.median(ops), "s", len(ops)),
        "op_tail_s": (tail_s, "s", len(ops)),
        "ops_per_s": (len(ops) / sum(ops), "1/s", len(ops)),
    }, tail_label


QUALITY = ("seg_f1", "height_rmse_m", "rf_rmse_m", "gbt_rmse_m", "mlp_rmse_m",
           "height_r2")


def workload_view(name, metrics, quality, results, tail_label):
    """The workload's own names for its metrics: (name, value, unit, n).
    Stage timings are medians over ops; quality is over `tp_jumps` jumps."""
    n = len(results)
    rows = [("setup_s", *metrics["setup_s"])]
    if name == "stream":
        rows += [("session_p50_s", metrics["op_s"][0], "s", n),
                 (f"session_tail_s ({tail_label})", metrics["op_tail_s"][0],
                  "s", n),
                 ("sessions_per_s", metrics["ops_per_s"][0], "1/s", n)]
    else:
        op_name = "fold_s" if name == "loso-fold" else "height_fit_s"
        rows.append((op_name, metrics["op_s"][0], "s", n))
    for key in results[0][1].times:
        if key != "op_s":
            rows.append((key, statistics.median(r.times[key]
                                                for _, r in results), "s", n))
    rows += [(key, quality[key], "m" if key.endswith("_m") else "ratio",
              quality["tp_jumps"]) for key in QUALITY if key in quality]
    return rows


def quality_layers(quality):
    """Output quality per layer, as per-layer metrics (0 where not run)."""
    rmse = {"rf": quality.get("height_rmse_m", quality.get("rf_rmse_m", 0.0)),
            "gbt": quality.get("gbt_rmse_m", 0.0),
            "mlp": quality.get("mlp_rmse_m", 0.0)}
    out = {f"regression.{k}_rmse_m": {"value": v, "unit": "m"}
           for k, v in rmse.items()}
    out["segmentation.f1"] = {"value": quality.get("seg_f1", 0.0),
                              "unit": "ratio"}
    return out


def blas_info():
    """BLAS vendor/config and its thread count (left at the library default)."""
    info = {"vendor": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def git_sha():
    """HEAD's commit read from `.git` in the checkout, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    """sha256 over src/jumppipe's modules, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "jumppipe", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_record(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "src_sha256": src_sha256(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "nproc": os.cpu_count()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "jumppipe", "__init__.py")):
        _fail(f"jumppipe source not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")
    log = lambda msg: print(msg, file=sys.stderr)

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        setup_times = timed_setups(workload, workload.setup_repeats)
        results, attempted, failed = run_pass(workload, args.seconds, log)
        if not results:
            _fail("every unit of work failed")
        metrics, tail_label = summarize(setup_times, results)
        quality, correct, checks = workload.quality([r for _, r in results])
        correct = correct and failed == 0
        metrics["height_r2"] = (quality.get("height_r2", math.nan), "ratio",
                                quality["tp_jumps"])
        record = run_record(args)
        record.update(checks=checks, tail_percentile=tail_label,
                      ops=len(results), digest=pass_digest(results),
                      digest_first_10=pass_digest(results[:10]))
        view = workload_view(args.workload, metrics, quality, results,
                             tail_label)

        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            with tracer.installed():
                traced_setup = timed_setups(workload, 1)
                traced, t_attempted, t_failed = run_pass(
                    workload, args.seconds, log, [i for i, _ in results])
            if not traced:
                _fail("every traced unit of work failed")
            attempted += t_attempted
            failed += t_failed
            digests_match = (pass_digest(traced) == record["digest"]
                             and t_failed == 0)
            correct = correct and digests_match
            record["traced_digests_match"] = digests_match
            traced_metrics, _ = summarize(traced_setup, traced)
            out = {name: {"value": v, "unit": u}
                   for name, (v, u) in tracer.layer_metrics().items()}
            out.update(quality_layers(quality))
            for name in TIMINGS:
                out[f"trace.overhead.{name}"] = {
                    "value": traced_metrics[name][0] - metrics[name][0],
                    "unit": "s"}
        else:
            out = {name: {"value": v, "unit": u}
                   for name, (v, u, _) in metrics.items()}

        for name, value, unit, n in view:
            print(f"{args.workload:<11} {name:<28} {value:>14.6g} {unit:<6} n={n}")
        print("record " + json.dumps(record, sort_keys=True))
        if not all(math.isfinite(m["value"]) for m in out.values()):
            _fail("a metric is not finite")
        print(json.dumps({"correct": bool(correct), "attempted": attempted,
                          "failed": failed, "metrics": out}))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass


if __name__ == "__main__":
    main()
