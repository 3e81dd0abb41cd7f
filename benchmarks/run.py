"""eelab benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``eelab`` from
``src/`` there and nowhere else, and exits 2 without a result when that
package is missing. BLAS is pinned to one thread.

``--trace 0`` repeats untraced passes of the workload for ``--seconds``
and reports the end-to-end metrics: wall_rel (pass time in units of an
interleaved reference loop, see untraced), setup_s and peak_rss_mb; the
raw pass times, their median wall_s and each experiment's median time
are printed on the ``detail`` line. ``--trace 1``
runs one untraced pass, one traced pass, the coverage suite and the
isolated probes, and reports the per-layer metrics; trace.overhead_s is
the time spent in the tracer's observers plus the number of spans times
a wrapper's measured cost per call. Both check every
experiment's artifacts (workloads.check_call) and their determinism
digest; the last stdout line is the JSON result, the lines before it
say the same for a reader. ``--smoke`` shrinks the workload to tiny
instances, for the harness's own test.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: at 2 threads the 202x201 lstsq in
# stationary_distribution swings from 10 to 256 ms per call.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 15
REFERENCE_S = 0.05  # nominal reference_s() time (2-vCPU Xeon VM, unloaded)
PROBE_SHARE = 0.25  # of --seconds, split over the probes

_IMPORT_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import eelab.config, eelab.experiments\n"
    "print(time.perf_counter() - t)\n"
)


def import_eelab():
    """Import eelab from this checkout's src/, or exit 2."""
    if not (SRC / "eelab" / "__init__.py").is_file():
        print(f"benchmark: no eelab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import eelab.config
    import eelab.experiments

    if Path(eelab.__file__).resolve().parent != (SRC / "eelab").resolve():
        print(f"benchmark: eelab imported from {eelab.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _construct(call, seed: int, clock: dict) -> None:
    """Validate the call's config and build its public objects, adding
    each piece's time to clock."""
    from eelab.config import validate_config
    from eelab.kernels import IndependenceKernel, MixtureKernel, RandomWalkKernel
    from eelab.statespace import enumerate_distribution
    from eelab.swcut import GibbsSiteSampler, SwCutSampler, edge_affinity
    from workloads import build_image

    def timed(key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        clock[key] = clock.get(key, 0.0) + time.perf_counter() - t0
        return value

    config = timed("validate", validate_config, call.raw_config(seed))
    model = timed("build_model", config.build_model)
    exp = call.experiment
    if exp in ("segment", "swcut_vs_gibbs"):
        seg = config.segmentation
        image, _ = timed("other", build_image, config)
        aff = timed("other", edge_affinity, image, p_max=seg.p_max,
                    p_min=seg.p_min, scale=seg.scale)
        cfg = seg.region_config()
        if exp == "swcut_vs_gibbs" or seg.sampler == "swcut":
            timed("other", SwCutSampler, image, seg.n_labels, seg.beta, cfg, aff)
        if exp == "swcut_vs_gibbs" or seg.sampler == "gibbs":
            timed("other", GibbsSiteSampler, image, seg.n_labels, seg.beta, cfg)
        return
    timed("other", config.ladder.build)
    levels = config.ladder.levels()
    local = [timed("other", RandomWalkKernel, model, lv) for lv in levels]
    if exp in ("spectral", "q4"):
        pi = timed("other", enumerate_distribution, model, levels[0])
        q = timed("other", enumerate_distribution, model, levels[1])
        jump = timed("other", IndependenceKernel, pi, q)
        timed("other", MixtureKernel, float(config.q4["alpha"]), local[0], jump)


def measure_setup(calls, seed: int) -> dict:
    """Set-up time at a fixed machine speed, plus its validate and
    build_model parts (raw medians, ms).

    One repetition is the import time in a fresh interpreter plus the
    construction time; it is scaled by REFERENCE_S over the reference
    loop time measured right after it, and setup_s is the median over
    SETUP_REPS repetitions. Raw set-up medians of ten runs moved by up to
    a third between sets of runs on a shared 2-vCPU VM; scaled ones are
    seconds at the speed where the reference loop takes REFERENCE_S.
    With 5 repetitions the scaled medians of ten runs still spread by up
    to 0.19 of their median, with 15 by 0.03 to 0.09.
    """
    scaled, validate, build = [], [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        import_s = float(proc.stdout.strip().splitlines()[-1])
        clock: dict = {}
        for call in calls:
            _construct(call, seed, clock)
        scaled.append((import_s + sum(clock.values())) * REFERENCE_S / reference_s())
        validate.append(clock["validate"])
        build.append(clock["build_model"])
    return {"setup_s": statistics.median(scaled),
            "config.validate_ms": 1e3 * statistics.median(validate),
            "statespace.build_model_ms": 1e3 * statistics.median(build)}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def digest(out: Path) -> str:
    """SHA-256 over the names and bytes of an output directory's files."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs experiment calls, checks them and keeps the tallies."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.artifacts: dict[int, list] = {}
        self._n = 0
        self._ref = None

    def run_pass(self, calls, tracer=None, run_id: int = 0, normalize=False):
        """Run the calls once. Returns label -> seconds in run_experiment,
        and with normalize the sum over calls of each call's time divided
        by the mean of the reference times just before and after it."""
        from eelab.config import validate_config
        from eelab.experiments import run_experiment
        from workloads import CheckFailed, check_call

        times = {}
        rel = 0.0
        if normalize and self._ref is None:
            self._ref = reference_s()
        for call in calls:
            self.attempted += 1
            self._n += 1
            out = self.workdir / f"{self._n:04d}-{call.label}"
            config = validate_config(call.raw_config(self.seed))
            if tracer is not None:
                tracer.run_id = run_id
                if call.experiment in ("segment", "swcut_vs_gibbs"):
                    tracer.percolation_input = _percolation_input(config)
                # wrapped only inside the call, so the checks below, which
                # step the samplers themselves, make no spans
                tracer.install()
            error = None
            # collect the harness's own garbage (checks, digests) now, not
            # inside the next timed call
            gc.collect()
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    span = tracer.open(f"experiments.{call.experiment}")
                run_experiment(config, out_dir=out)
            except Exception:  # a failed call is counted, the pass goes on
                error = traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.close(span)
                times[call.label] = time.perf_counter() - t0
            if normalize:
                ref = reference_s()
                rel += times[call.label] / (0.5 * (self._ref + ref))
                self._ref = ref
            if tracer is not None:
                tracer.uninstall()
                tracer.percolation_input = None
            if error is None:
                try:
                    check_call(call, config, out)
                except (CheckFailed, KeyError, OSError, ValueError) as exc:
                    error = f"check failed: {exc!r}"
            if error is None:
                got = digest(out)
                want = self.digests.setdefault(call.label, got)
                if got != want:
                    error = f"artifact digest {got[:12]} differs from {want[:12]}"
            if error is None and tracer is not None:
                from spans import artifact_counts

                self.artifacts.setdefault(run_id, []).append(artifact_counts(out))
            if error is not None:
                self.failures.append(f"{call.label}: {error}")
                print(f"FAILED {call.label}: {error}", file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
        return (times, rel) if normalize else times


def _percolation_input(config):
    from spans import percolation_input
    from workloads import build_image

    return percolation_input(build_image(config)[0], config.segmentation)


def reference_s() -> float:
    """Seconds taken by a fixed CPU-bound loop that runs no eelab code:
    Python arithmetic and dict stores plus small numpy ufunc calls. It
    allocates no containers, so it does not depend on the program's heap."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    table = dict.fromkeys(range(256), 0)
    for k in range(450_000):
        acc += k * 0.5
        table[k & 255] = k
    a = np.arange(4096.0)
    for _ in range(900):
        np.sqrt(a, out=a)
        a += 1.0
    return time.perf_counter() - t0


def untraced(runner: Runner, calls, seconds: float) -> dict:
    """Repeat passes until another would overrun the budget.

    wall_rel is the median over passes of the pass's reference-normalized
    time (Runner.run_pass). On a shared 2-vCPU Xeon VM the CPU speed
    drifts by 15-20% over tens of seconds: the medians of a fixed loop's
    times over 30 s windows have a quartile spread of 0.2 of their median,
    and so do raw pass times across runs. The ratio cancels the drift.
    peak_rss_mb is read after the first pass: later passes add only
    allocator growth that varies from run to run.
    """
    deadline = time.perf_counter() + seconds
    passes, rel = [], []
    while True:
        times, r = runner.run_pass(calls, normalize=True)
        passes.append(times)
        rel.append(r)
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = [sum(p.values()) for p in passes]
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    return {
        "walls": walls,
        "wall_s": statistics.median(walls),
        "wall_rel": statistics.median(rel),
        "peak_rss_mb": peak_rss_mb,
        "per_call": {c.label: statistics.median(p[c.label] for p in passes)
                     for c in calls},
    }


def traced(runner: Runner, workload, calls, seconds: float, smoke: bool):
    from probes import N_PROBES, run_probes, span_cost_s
    from spans import COVERAGE_RUN, WORKLOAD_RUN, Tracer, layer_metrics
    from workloads import coverage_calls

    # an untraced pass first: the traced pass's digests must match it
    runner.run_pass(calls)
    tracer = Tracer()
    traced_wall = sum(runner.run_pass(calls, tracer, WORKLOAD_RUN).values())
    runner.run_pass(coverage_calls(workload), tracer, COVERAGE_RUN)

    own = layer_metrics(tracer, WORKLOAD_RUN, runner.artifacts.get(WORKLOAD_RUN, []),
                        runner.seed)
    cover = layer_metrics(tracer, COVERAGE_RUN,
                          runner.artifacts.get(COVERAGE_RUN, []), runner.seed)
    metrics = {name: (value if support else cover[name][0])
               for name, (value, support) in own.items()}
    attributed = metrics.pop("trace.attributed_s")
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = traced_wall - attributed
    budget = (0.01 if smoke else PROBE_SHARE * seconds) / N_PROBES
    # The observers' time plus every span's wrapper cost. Traced minus
    # untraced pass time would be smaller than the pass-to-pass noise.
    n_spans = own["trace.attributed_s"][1]
    metrics["trace.overhead_s"] = (own["trace.observe_s"][0]
                                   + n_spans * span_cost_s(budget))
    metrics.update(run_probes(runner.seed, budget))
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 prints instead of returning
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD of this checkout, read from .git directly (never from parents)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def load_units(key: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances (the harness's own test)")
    args = parser.parse_args(argv)

    import_eelab()
    from workloads import WORKLOADS, smoke_calls

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    calls = smoke_calls(workload) if args.smoke else workload.calls
    units = load_units("per_layer" if args.trace else "end_to_end")

    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        runner = Runner(args.seed, workdir)
        setup = measure_setup(calls, args.seed)
        if args.trace:
            metrics = traced(runner, workload, calls, args.seconds, args.smoke)
            metrics["config.validate_ms"] = setup["config.validate_ms"]
            metrics["statespace.build_model_ms"] = setup["statespace.build_model_ms"]
        else:
            timed = untraced(runner, calls, args.seconds)
            metrics = {name: timed[name] for name in ("wall_rel", "peak_rss_mb")}
            metrics["setup_s"] = setup["setup_s"]
            print("detail " + json.dumps({
                "passes": len(timed["walls"]), "pass_walls_s": timed["walls"],
                "wall_s": timed["wall_s"], "experiment_s": timed["per_call"]},
                sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        print(f"benchmark: metrics differ from BENCHMARK.json: missing {missing}, "
              f"extra {extra}", file=sys.stderr)
        return 2

    failed = len(runner.failures)
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    print("digest " + json.dumps(runner.digests, sort_keys=True))
    print(f"error_rate {failed / runner.attempted!r} "
          f"({failed} of {runner.attempted} experiment calls)")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
