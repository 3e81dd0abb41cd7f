"""Tracing from outside the program: spans around calls into each layer.

The traced run wraps the public entry points each experiment calls, at
the name the caller looks up (``eelab.experiments.run_ladder``, the
``step`` method of ``SwCutSampler``, ...). A span records its name,
start, end, parent span and run id; spans stay in memory until the run
ends. A layer's self time is its spans' durations minus the time their
child spans cover.

Counts come only from artifacts and public objects: the ``LevelTrace``
columns ``states``, ``move_types`` and ``accepted``, the ``total`` of a
returned ledger, the files an experiment writes, and the label arrays a
sampler step mutates. Cluster sizes come from the benchmark's own bond
percolation over ``lattice_edges`` and ``edge_affinity(...).p``.

Run ids: 1 is the workload pass, 2 the coverage suite (tiny instances of
the experiments the workload does not run). A layer metric whose layer
the workload never calls is taken from the coverage suite, so every
layer metric is a measured number on every workload; compare such a
figure only within one workload.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

WORKLOAD_RUN, COVERAGE_RUN = 1, 2
SNAPSHOT_EVERY = 16  # percolate the labeling before every 16th SW-cut move


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        # span: [name, start, end, parent index, run id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0
        self.facts: list[tuple] = []  # (run id, kind, payload)
        self.snapshots: list[tuple] = []  # (run id, labels, percolation input)
        self.percolation_input = None  # (ei, ej, p) of the current image
        self._moves = 0
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def fact(self, kind: str, payload) -> None:
        self.facts.append((self.run_id, kind, payload))

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a traced version; hooks run in their own
        ``harness.observe`` spans so the layer's time excludes them."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = None
            if before is not None:
                j = tracer.open("harness.observe")
                token = before(tracer, args, kwargs)
                tracer.close(j)
            i = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                j = tracer.open("harness.observe")
                after(tracer, token, args, kwargs, result, i)
                tracer.close(j)
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def install(self) -> None:
        from eelab import eeladder, experiments, spectral
        from eelab.kernels import IndependenceKernel, MixtureKernel, RandomWalkKernel
        from eelab.swcut import GibbsSiteSampler, SwCutSampler

        for fn, layer in (
            ("run_ladder", "eeladder"), ("ledger_from_iid", "eeladder"),
            ("idealized_jump_matrix", "eeladder"),
            ("empirical_jump_chain_matrix", "eeladder"),
            ("segment", "swcut"),
            ("write_label_pgm", "netpbm"), ("write_overlay_ppm", "netpbm"),
            ("write_csv", "experiments"), ("write_json", "experiments"),
            ("tv_distance", "spectral"), ("eigen_spectrum", "spectral"),
            ("mis_gap_report", "spectral"),
            ("enumerate_distribution", "statespace"),
            ("stationary_distribution", "kernels"),
        ):
            after = {"run_ladder": _after_run_ladder,
                     "ledger_from_iid": _after_ledger_fill}.get(fn)
            self.wrap(experiments, fn, f"{layer}.{fn}", after=after)
        # callers inside the package that look these names up themselves
        self.wrap(eeladder, "enumerate_distribution",
                  "statespace.enumerate_distribution")
        self.wrap(spectral, "eigen_spectrum", "spectral.eigen_spectrum")
        for cls in (RandomWalkKernel, IndependenceKernel, MixtureKernel):
            self.wrap(cls, "exact_matrix", f"kernels.{cls.__name__}.exact_matrix")
        self.wrap(SwCutSampler, "step", "swcut.SwCutSampler.step",
                  before=_before_move, after=_after_move)
        self.wrap(GibbsSiteSampler, "step", "swcut.GibbsSiteSampler.step")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- observers (run outside the layer's span) --------------------------------


def _after_run_ladder(tracer, _token, args, kwargs, traces, span):
    config = args[1] if len(args) > 1 else kwargs["config"]
    steps = jumps = fallbacks = accepted_jumps = 0
    for tr in traces.levels:
        moves = np.asarray(tr.move_types)
        acc = np.asarray(tr.accepted)
        steps += len(tr.states)
        jumps += int((moves == 1).sum())
        fallbacks += int((moves == 2).sum())
        accepted_jumps += int(((moves == 1) & (acc != 0)).sum())
    tracer.fact("ladder", (span, config.schedule, steps, jumps, fallbacks,
                           accepted_jumps))


def _after_ledger_fill(tracer, _token, _args, _kwargs, ledger, _span):
    tracer.fact("ledger_records", ledger.total)


def _labels(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["labels"]


def _before_move(tracer, args, kwargs):
    return _labels(args, kwargs).copy()


def _after_move(tracer, before, args, kwargs, _result, _span):
    tracer.fact("relabel", not np.array_equal(before, _labels(args, kwargs)))
    if tracer._moves % SNAPSHOT_EVERY == 0 and tracer.percolation_input:
        tracer.snapshots.append((tracer.run_id, before,
                                 tracer.percolation_input))
    tracer._moves += 1


# ---------------------------------------------------------------------------
# Bond percolation (independent of the sampler's own cluster code)
# ---------------------------------------------------------------------------


def percolation_input(image, seg_section):
    """(ei, ej, p) for an image under a segmentation config section."""
    from eelab.swcut import edge_affinity, lattice_edges

    ei, ej = lattice_edges(image.width, image.height)
    p = edge_affinity(image, p_max=seg_section.p_max, p_min=seg_section.p_min,
                      scale=seg_section.scale).p
    return ei, ej, p


def n_clusters(labels: np.ndarray, ei, ej, p, gen: np.random.Generator) -> int:
    """Number of components after bonding each same-label edge w.p. p_e."""
    on = (labels[ei] == labels[ej]) & (gen.random(len(ei)) < p)
    parent = list(range(len(labels)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    k = len(labels)
    for a, b in zip(ei[on].tolist(), ej[on].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            k -= 1
    return k


def cluster_stats(snapshots, seed: int) -> tuple[float, float]:
    """(mean |V0| under the uniform cluster pick, mean cluster count)."""
    gen = np.random.default_rng(seed)
    counts, v0 = [], []
    for labels, (ei, ej, p) in snapshots:
        k = n_clusters(labels, ei, ej, p, gen)
        counts.append(k)
        v0.append(len(labels) / k)  # E|V0| when each cluster is equally likely
    if not counts:
        return 0.0, 0.0
    return float(np.mean(v0)), float(np.mean(counts))


# ---------------------------------------------------------------------------
# Layer metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def artifact_counts(out: Path) -> dict:
    """Row, byte and image-byte counts of one experiment's output files."""
    rows = nbytes = img_bytes = 0
    sweeps: dict[str, list[float]] = defaultdict(list)
    for path in sorted(out.iterdir()):
        size = path.stat().st_size
        nbytes += size
        if path.suffix in (".pgm", ".ppm"):
            img_bytes += size
        elif path.suffix == ".csv":
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            rows += len(lines) - 1
            if path.name == "mixing.csv":
                for line in lines[1:]:
                    sampler, _seed, value = line.split(",")
                    sweeps[sampler].append(float(value))
    return {"csv_rows": rows, "artifact_bytes": nbytes, "image_bytes": img_bytes,
            "sweeps": dict(sweeps)}


def layer_metrics(tracer: Tracer, run_id: int, artifacts: list[dict],
                  seed: int) -> dict:
    """name -> (value, support). support is the number of calls the value
    rests on; 0 means the run never reached that layer."""
    from eelab.config import EXPERIMENTS

    all_selfs = self_times(tracer.spans)
    picked = [k for k, s in enumerate(tracer.spans) if s[4] == run_id]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for k in picked:
        calls[tracer.spans[k][0]] += 1
        self_s[tracer.spans[k][0]] += all_selfs[k]
    facts = [(kind, p) for run, kind, p in tracer.facts if run == run_id]

    m: dict[str, tuple] = {}

    def ratio(a, b):
        return a / b if b else 0.0

    # eeladder: the sampler
    runs = [p for kind, p in facts if kind == "ladder"]
    sched_time: dict[str, float] = defaultdict(float)
    sched_steps: dict[str, int] = defaultdict(int)
    for span, sched, n_steps, *_ in runs:
        sched_time[sched] += all_selfs[span]
        sched_steps[sched] += n_steps
    steps = sum(p[2] for p in runs)
    jumps = sum(p[3] for p in runs)
    fallbacks = sum(p[4] for p in runs)
    n_runs = calls["eeladder.run_ladder"]
    m["eeladder.run_ladder_s"] = (self_s["eeladder.run_ladder"], n_runs)
    m["eeladder.level_steps"] = (steps, n_runs)
    for sched in ("parallel", "serial"):
        m[f"eeladder.level_step_us.{sched}"] = (
            1e6 * ratio(sched_time[sched], sched_steps[sched]), sched_steps[sched])
    m["eeladder.jump_share"] = (ratio(jumps + fallbacks, steps), n_runs)
    m["eeladder.jump_accept_ratio"] = (
        ratio(sum(p[5] for p in runs), jumps), n_runs)
    m["eeladder.fallback_share"] = (ratio(fallbacks, jumps + fallbacks), n_runs)

    # eeladder: the oracle side
    jm = ("eeladder.idealized_jump_matrix", "eeladder.empirical_jump_chain_matrix")
    m["eeladder.jump_matrix_s"] = (sum(self_s[n] for n in jm),
                                   sum(calls[n] for n in jm))
    fills = calls["eeladder.ledger_from_iid"]
    m["eeladder.ledger_fill_s"] = (self_s["eeladder.ledger_from_iid"], fills)
    m["eeladder.ledger_records"] = (
        sum(p for kind, p in facts if kind == "ledger_records"), fills)

    # kernels
    em = [f"kernels.{c}.exact_matrix" for c in
          ("RandomWalkKernel", "IndependenceKernel", "MixtureKernel")]
    n_em = sum(calls[n] for n in em)
    m["kernels.exact_matrix_s"] = (sum(self_s[n] for n in em), n_em)
    m["kernels.exact_matrix_calls"] = (n_em, n_em)
    n_st = calls["kernels.stationary_distribution"]
    m["kernels.stationary_s"] = (self_s["kernels.stationary_distribution"], n_st)
    m["kernels.stationary_calls"] = (n_st, n_st)

    # statespace
    n_en = calls["statespace.enumerate_distribution"]
    m["statespace.enumerate_s"] = (self_s["statespace.enumerate_distribution"], n_en)

    # spectral (the MIS report's own work counts as eigenanalysis)
    n_eig = calls["spectral.eigen_spectrum"]
    m["spectral.eigen_s"] = (self_s["spectral.eigen_spectrum"]
                             + self_s["spectral.mis_gap_report"], n_eig)
    m["spectral.eigen_calls"] = (n_eig, n_eig)
    n_tv = calls["spectral.tv_distance"]
    m["spectral.tv_s"] = (self_s["spectral.tv_distance"], n_tv)
    m["spectral.tv_calls"] = (n_tv, n_tv)

    # swcut
    moves = calls["swcut.SwCutSampler.step"]
    sites = calls["swcut.GibbsSiteSampler.step"]
    relabels = sum(1 for kind, p in facts if kind == "relabel" and p)
    snaps = [(lab, inp) for run, lab, inp in tracer.snapshots if run == run_id]
    v0_mean, clusters_mean = cluster_stats(snaps, seed)
    m["swcut.segment_s"] = (self_s["swcut.segment"], calls["swcut.segment"])
    m["swcut.move_us"] = (1e6 * ratio(self_s["swcut.SwCutSampler.step"], moves),
                          moves)
    m["swcut.moves"] = (moves, moves)
    m["swcut.relabel_share"] = (ratio(relabels, moves), moves)
    m["swcut.v0_mean"] = (v0_mean, len(snaps))
    m["swcut.clusters_mean"] = (clusters_mean, len(snaps))
    m["swcut.gibbs_site_us"] = (
        1e6 * ratio(self_s["swcut.GibbsSiteSampler.step"], sites), sites)
    m["swcut.gibbs_sites"] = (sites, sites)
    for sampler in ("swcut", "gibbs"):
        values = [v for a in artifacts for v in a["sweeps"].get(sampler, [])]
        m[f"swcut.sweeps_to_target.{sampler}"] = (
            statistics.median(values) if values else 0.0, len(values))

    # netpbm
    writers = ("netpbm.write_label_pgm", "netpbm.write_overlay_ppm")
    n_pbm = sum(calls[n] for n in writers)
    m["netpbm.write_s"] = (sum(self_s[n] for n in writers), n_pbm)
    m["netpbm.bytes"] = (sum(a["image_bytes"] for a in artifacts), n_pbm)

    # experiments
    for exp in EXPERIMENTS:
        name = f"experiments.{exp}"
        m[f"experiments.self_s.{exp}"] = (self_s[name], calls[name])
    n_csv = calls["experiments.write_csv"]
    rows = sum(a["csv_rows"] for a in artifacts)
    m["experiments.write_csv_s"] = (self_s["experiments.write_csv"], n_csv)
    m["experiments.csv_rows"] = (rows, n_csv)
    m["experiments.csv_rows_per_s"] = (
        ratio(rows, self_s["experiments.write_csv"]), n_csv)
    m["experiments.write_json_s"] = (self_s["experiments.write_json"],
                                     calls["experiments.write_json"])
    m["experiments.artifact_bytes"] = (sum(a["artifact_bytes"] for a in artifacts),
                                       len(artifacts))

    # harness
    m["trace.observe_s"] = (self_s["harness.observe"], calls["harness.observe"])
    m["trace.attributed_s"] = (sum(all_selfs[k] for k in picked), len(picked))
    return m
