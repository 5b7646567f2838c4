#!/usr/bin/env python3
"""phm benchmark: runs one workload in this fresh process and prints its metrics.

    python3 perfbench/run.py --workload pair-ladder --seed 1 --seconds 28 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. With ``--trace 0`` the last stdout line is a JSON object
carrying every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
it carries the per-layer metrics of a traced run. Every scored pair is
checked against ``expected.json``; a miss makes the run exit with code 1.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads (here and in set-up probes).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer, instrument, patched  # noqa: E402

BATCH_JOBS = 2  # `phm batch --jobs 2`: rows compete for two cores
SETUP_PROBES = 3

# Gate tolerances (absolute). A Chebyshev SGWT of order 120 measured
# 1e-4..1e-3 error on d_L^I against the dense path; 2e-3 admits that with
# headroom. On these inputs the score moves by about a tenth of a d_L^I
# change, so 5e-4 on the score leaves the same headroom. Wrong kernels
# (1/x^2 tail, lambda_min = lambda_max/10) move d_L^I by more than 2e-3 on
# five of the six pair-ladder pairs and so fail. Identity rows must score
# exactly 1.0.
SCORE_ATOL = 5e-4
DLI_ATOL = 2e-3

PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from phm.cli import main; "
    "sys.exit(main(['score', '--ref', sys.argv[2], '--dist', sys.argv[2], '--plain']))"
)


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def require_sources() -> Path:
    src = ROOT / "src"
    if not (src / "phm" / "__init__.py").is_file():
        fail(f"no phm sources at {src}; run inside a phm checkout")
    return src


def import_phm():
    src = require_sources()
    sys.path.insert(0, str(src))
    import phm
    import phm.cli
    import phm.metric

    if Path(phm.__file__).resolve().parent != (src / "phm").resolve():
        fail(f"imported phm from {phm.__file__}, not from {src}")
    return phm


@dataclass
class PairResult:
    case_id: str
    latency: float
    score: float | None
    d_l_i: float | None
    error: str | None
    identity: bool


def _passes(items, seed: int):
    """Endless passes over the pool, each a new seed-drawn permutation."""
    rng = np.random.default_rng(seed)
    while True:
        yield [items[i] for i in rng.permutation(len(items))]


class PairLadder:
    """Serial in-memory scoring: PointCloud.from_arrays on both sides, then
    phm_score; each pair has its own reference."""

    jobs = 1

    def __init__(self, phm, scale: str, cache: Path):
        self.cloud = phm.cloud
        self.metric = phm.metric
        self.pool = inputs.pair_pool("pair-ladder", scale)
        self.arrays = {case.case_id: inputs.materialize(case) for case in self.pool}

    def passes(self, seed):
        return _passes(self.pool, seed)

    def hooks(self):
        return contextlib.nullcontext()

    def run_unit(self, case):
        rp, rc, dp, dc = self.arrays[case.case_id]
        t0 = time.perf_counter()
        try:
            ref = self.cloud.PointCloud.from_arrays(rp, rc)
            dist = self.cloud.PointCloud.from_arrays(dp, dc)
            report = self.metric.phm_score(ref, dist)
        except Exception as e:  # a raising pair is a counted failure
            return [PairResult(case.case_id, time.perf_counter() - t0, None, None,
                               f"{type(e).__name__}: {e}", case.level is None)]
        dt = time.perf_counter() - t0
        return [PairResult(case.case_id, dt, report.score, report.d_l_i,
                           None if report.status == "ok" else report.status, case.level is None)]


class LargeFine:
    """In-process `phm score` on ascii PLY pairs with many small patches."""

    jobs = 1

    def __init__(self, phm, scale: str, cache: Path):
        self.cli = phm.cli
        self.pool = inputs.pair_pool("large-fine", scale)
        self.files = {c.case_id: inputs.ensure_files(c, cache, binary=False) for c in self.pool}
        self.config = cache / "large-fine-config.json"
        divisor = inputs.SCALES[scale]["large-fine"]["patch_divisor"]
        self.config.write_text(json.dumps({"patch_divisor": divisor}))

    def passes(self, seed):
        return _passes(self.pool, seed)

    def hooks(self):
        return contextlib.nullcontext()

    def run_unit(self, case):
        ref, dist = self.files[case.case_id]
        out, err = io.StringIO(), io.StringIO()
        argv = ["score", "--ref", str(ref), "--dist", str(dist), "--config", str(self.config)]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as e:
            rc, err = -1, io.StringIO(f"{type(e).__name__}: {e}")
        dt = time.perf_counter() - t0
        if rc != 0:
            return [PairResult(case.case_id, dt, None, None, f"exit {rc}: {err.getvalue().strip()}",
                               case.level is None)]
        report = json.loads(out.getvalue())
        return [PairResult(case.case_id, dt, report["score"], report["d_l_i"], None,
                           case.level is None)]


class BatchSharedRef:
    """In-process `phm batch --jobs 2`: a few references, several distortions each."""

    jobs = BATCH_JOBS

    def __init__(self, phm, scale: str, cache: Path):
        self.cli = phm.cli
        if not hasattr(phm.cli, "_batch_row"):
            fail("phm.cli._batch_row is gone; batch rows cannot be timed")
        self.cache = cache
        self.per_batch = inputs.SCALES[scale]["batch-shared-ref"]["refs_per_batch"]
        self.pool = inputs.batch_pool(scale)
        self.files = {c.case_id: inputs.ensure_files(c, cache, binary=True)
                      for rows in self.pool.values() for c in rows}
        self.row_times: dict[str, float] = {}

    def passes(self, seed):
        """Each pass groups every reference once into manifests of per_batch."""
        k = self.per_batch
        for refs in _passes(sorted(self.pool), seed):
            yield [tuple(refs[i:i + k]) for i in range(0, len(refs), k)]

    @contextlib.contextmanager
    def hooks(self):
        inner = self.cli._batch_row

        def timed_row(pair_id, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(pair_id, *args, **kwargs)
            finally:
                self.row_times[pair_id] = time.perf_counter() - t0

        with patched([(self.cli, "_batch_row", timed_row)]):
            yield

    def _rows(self, refs):
        """Each reference's distorted rows, then the lowest reference's identity row."""
        rows = [c for r in refs for c in self.pool[r] if c.level is not None]
        return rows + [next(c for c in self.pool[min(refs)] if c.level is None)]

    def run_unit(self, refs):
        rows = self._rows(refs)
        manifest = self.cache / f"manifest_{os.getpid()}.csv"
        result = self.cache / f"scores_{os.getpid()}.csv"
        with open(manifest, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("pair_id", "ref_path", "dist_path"))
            for c in rows:
                w.writerow((c.case_id, *map(str, self.files[c.case_id])))
        self.row_times.clear()
        err = io.StringIO()
        argv = ["batch", "--manifest", str(manifest), "--jobs", str(self.jobs), "--out", str(result)]
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as e:
            rc, err = -1, io.StringIO(f"{type(e).__name__}: {e}")
        scored = {}
        if rc == 0:
            with open(result, encoding="utf-8", newline="") as fh:
                scored = {r["pair_id"]: r for r in csv.DictReader(fh)}
        out = []
        for c in rows:
            row = scored.get(c.case_id)
            dt = self.row_times.get(c.case_id, float("nan"))
            if row is None or row["error"] or not row["score"]:
                why = row["error"] if row else f"exit {rc}: {err.getvalue().strip()}"
                out.append(PairResult(c.case_id, dt, None, None, why or "no score", c.level is None))
            else:
                out.append(PairResult(c.case_id, dt, float(row["score"]), float(row["d_l_i"]),
                                      None, c.level is None))
        return out


CLASSES = {"pair-ladder": PairLadder, "batch-shared-ref": BatchSharedRef, "large-fine": LargeFine}


# --- measurement ----------------------------------------------------------------


def measure(workload, passes, seconds: float | None = None, tracer: Tracer | None = None):
    """Closed loop, one caller: start the next unit only after the last ends.

    Runs whole passes over the input pool, so every run scores the same
    multiset of pairs and only the order depends on the seed. With
    ``seconds``, it runs at least one pass and starts another only if, at
    the mean pass time so far, that pass would end within ``seconds``;
    otherwise it runs exactly the given passes. With ``tracer``, the spans
    of each unit share a request id.
    """
    results, done = [], []
    t0 = time.perf_counter()
    with workload.hooks():
        for units in passes:
            elapsed = time.perf_counter() - t0
            if seconds is not None and done and elapsed * (len(done) + 1) / len(done) > seconds:
                break
            for unit in units:
                if tracer is not None:
                    tracer.request_id += 1
                results.extend(workload.run_unit(unit))
            done.append(units)
    return results, done, time.perf_counter() - t0


def miss(r: PairResult, expected: dict) -> str | None:
    """Why a pair failed (raised, no score, or off its frozen value), else None."""
    want = expected.get(r.case_id)
    if r.error is not None or r.score is None:
        return f"{r.case_id}: {r.error or 'no score'}"
    if r.identity and r.score != 1.0:
        return f"{r.case_id}: identity scored {r.score!r}, not exactly 1.0"
    if want is None:
        return f"{r.case_id}: no expected score"
    if abs(r.score - want["score"]) > SCORE_ATOL or abs(r.d_l_i - want["d_l_i"]) > DLI_ATOL:
        return (f"{r.case_id}: score {r.score!r} / d_l_i {r.d_l_i!r}, expected "
                f"{want['score']!r} / {want['d_l_i']!r}")
    return None


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    That is the 11th-largest sample. Below 30 samples it sits under the
    67th percentile and says little about the tail, so the maximum
    (percentile 100) is reported instead: over per-pair medians of a run
    that visits the whole pool, that is the pool's slowest pair.
    """
    s = sorted(samples)
    if len(s) >= 30:
        k = len(s) - 11
        return s[k], 100.0 * (k + 1) / len(s)
    return s[-1], 100.0


def measure_setup(cache: Path) -> list[float]:
    """Wall time of fresh processes that import phm and score a tiny identity pair."""
    pair = inputs.ensure_setup_pair(cache)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "src"), str(pair)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.strip() != "1.0":
            fail(f"set-up probe failed (exit {proc.returncode}): "
                 f"{proc.stdout.strip()} {proc.stderr.strip()[-500:]}")
    return times


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def provenance(phm) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted((ROOT / "src" / "phm").glob("*.py"))}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_commit": commit,
        "src_phm_lines": {**lines, "total": sum(lines.values())},
        "thread_env": {v: os.environ[v] for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def warm_up(phm, cache: Path) -> None:
    """Score the set-up pair in this process so lazy imports finish untimed."""
    pair = str(inputs.ensure_setup_pair(cache))
    with contextlib.redirect_stdout(io.StringIO()):
        if phm.cli.main(["score", "--ref", pair, "--dist", pair, "--plain"]) != 0:
            fail("warm-up score failed")


def load_expected(path: Path, scale: str, workload: str) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("generator_version") != inputs.GENERATOR_VERSION:
        fail(f"{path} was frozen for generator v{doc.get('generator_version')}, "
             f"inputs are v{inputs.GENERATOR_VERSION}")
    return doc["cases"][scale][workload]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def case_latencies(results) -> list[float]:
    """Each distinct pair's median wall time in the run.

    A run visits the whole pool and repeats a seed-dependent few pairs;
    weighting each distinct pair once keeps the latency statistics from
    depending on which pairs were repeated.
    """
    by_case: dict[str, list[float]] = {}
    for r in results:
        by_case.setdefault(r.case_id, []).append(r.latency)
    return [statistics.median(v) for v in by_case.values()]


def end_to_end(workload, results, wall: float, setup: list[float]):
    lat = case_latencies(results)
    tail_value, tail_pct = tail(lat)
    metrics = {
        "pairs_per_s": metric(len(results) / wall, "1/s"),
        "pair_latency_p50_s": metric(statistics.median(lat), "s"),
        "pair_latency_tail_s": metric(tail_value, "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "pair_latency_p50_s": f"over {len(lat)} distinct pairs, {len(results)} scored",
        "pair_latency_tail_s": f"p{tail_pct:.1f} of {len(lat)} distinct pairs",
        "setup_s": f"median of {len(setup)} fresh processes",
    }
    return metrics, notes


SELF_TIME = ("cloud.load", "cloud.fps", "cloud.query_bulk", "cloud.spatial_index",
             "visible.symmetric_mse", "visible.ar_fit", "patches.partition",
             "patches.graph_build", "patches.eigh", "appearance.prepare", "appearance.geometry",
             "appearance.texture", "appearance.sgwt", "appearance.wcm", "metric.phm_score")
CALL_COUNTS = {"cloud.spatial_index_builds": "cloud.spatial_index",
               "patches.graph_builds": "patches.graph_build",
               "patches.eigh_calls": "patches.eigh",
               "appearance.wcm_builds": "appearance.wcm"}
COUNTS = ("cloud.query_fallback_calls", "patches.eigh_n3_sum", "patches.patch_count",
          "patches.capped_count", "patches.degenerate_count")


def per_layer(tracer: Tracer, workload, results, wall: float, untraced_wall: float) -> dict:
    """Per scored pair: self times (s/pair) and counts (count/pair)."""
    n = len(results)
    out = {f"{name}_s": metric(tracer.self_time[name] / n, "s/pair") for name in SELF_TIME}
    for key, name in CALL_COUNTS.items():
        out[key] = metric(tracer.calls[name] / n, "count/pair")
    for key in COUNTS:
        out[key] = metric(tracer.counts[key] / n, "count/pair")
    out["patches.max_patch_n"] = metric(tracer.maxima.get("patches.max_patch_n", 0), "count")
    busy = sum(r.latency for r in results)
    out["cli.row_busy_s"] = metric(busy / n, "s/pair")
    out["cli.worker_idle_s"] = metric((workload.jobs * wall - busy) / n, "s/pair")
    out["cli.parallel_efficiency"] = metric(busy / (workload.jobs * wall), "ratio")
    out["trace.overhead_frac"] = metric(wall / untraced_wall - 1.0, "ratio")
    return out


def baseline_table(name: str, tracer: Tracer, n: int) -> str:
    """Per-pair means in the shape of the ROADMAP baseline table."""
    inc = tracer.inclusive
    cols = (inc["metric.phm_score"], inc["visible.visible_difference"],
            inc["patches.partition"] + inc["appearance.prepare"], inc["appearance.texture"],
            inc["patches.eigh"])
    total, vis, part, tex, eigh = (c / n for c in cols)
    return ("| case | total | visible | partition+graphs | texture (of which `eigh`) |\n"
            "|---|---|---|---|---|\n"
            f"| {name}, {n} pairs | {total:.3f} s | {vis:.3f} s | {part:.3f} s "
            f"| {tex:.3f} s ({eigh:.3f} s) |")


def run(args) -> int:
    scale_cache = inputs.cache_dir(ROOT, args.scale)
    expected_path = Path(args.expected) if args.expected else BENCH_DIR / "expected.json"
    require_sources()
    setup = [] if args.trace else measure_setup(scale_cache)
    phm = import_phm()
    expected = load_expected(expected_path, args.scale, args.workload)
    workload = CLASSES[args.workload](phm, args.scale, scale_cache)
    warm_up(phm, scale_cache)
    print(json.dumps({"provenance": provenance(phm)}))

    if not args.trace:
        results, _, wall = measure(workload, workload.passes(args.seed), args.seconds)
        misses = [m for m in (miss(r, expected) for r in results) if m]
        metrics, notes = end_to_end(workload, results, wall, setup)
        for name, m in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
        print(f"{args.workload} failed_frac = {len(misses) / len(results):.6g} "
              f"({len(misses)}/{len(results)} pairs)")
        attempted = len(results)
    else:
        # One unit first, untimed, so neither pass pays first-call costs.
        measure(workload, [next(workload.passes(args.seed))[:1]])
        plain, passes, plain_wall = measure(workload, workload.passes(args.seed), args.seconds / 2)
        tracer = Tracer()
        replacements, missing = instrument(tracer)
        if missing:
            sys.stderr.write(f"perfbench: not traced (absent): {', '.join(missing)}\n")
        with patched(replacements):
            traced, _, traced_wall = measure(workload, passes, tracer=tracer)
        misses = [m for m in (miss(r, expected) for r in plain) if m]
        for a, b in zip(plain, traced):
            m = miss(b, expected)
            if m is None and (a.score, a.d_l_i) != (b.score, b.d_l_i):
                m = f"{b.case_id}: traced result {b.score!r} differs from untraced {a.score!r}"
            if m:
                misses.append(m)
        metrics = per_layer(tracer, workload, traced, traced_wall, plain_wall)
        print(baseline_table(args.workload, tracer, len(traced)))
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        spans = scale_cache / f"spans_{args.workload}_{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        attempted = len(plain) + len(traced)

    for m in misses:
        sys.stderr.write(f"perfbench: gate miss: {m}\n")
    correct = not misses
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(misses),
                      "metrics": metrics}))
    return 0 if correct else 1


def positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(CLASSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=positive, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(inputs.SCALES), default="full",
                   help="input pool size; 'tiny' is for the smoke tests")
    p.add_argument("--expected", default=None,
                   help="frozen expected scores (default: perfbench/expected.json)")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
