"""The benchmark's workloads: what each runs, why, and how its output is checked.

Load model: a closed loop. One benchmark process runs one experiment at a
time through the public ``validate_config`` and ``run_experiment``, with
no queue and no waiting between layers, so nothing ever waits for a
layer. Each workload run is a fresh process.

The workload seed enters the program only as the config ``seed`` and
``segmentation.image.image_seed``. Configs set only keys that planned
refactors keep: ``experiment``, ``seed``, ``replicates``,
``model.points`` and ``segmentation.{region_mode, order, sampler,
sweeps, image.width, image.height}``. ``cluster_pick`` is never set,
because the uniform pick may be deleted.

Which layer metric should move which end-to-end metric, on which
workload (a layer is one ``eelab`` module):

=====================  =====================================================
layer metrics          should move
=====================  =====================================================
eeladder.run_ladder_s  ladder: wall_s and peak_rss_mb (the ``run``, ``q1``
eeladder.level_*       and ``q2`` times in the detail line); nothing
eeladder.jump_*        elsewhere
eeladder.fallback_*
eeladder.jump_matrix_s oracle: wall_s (``q3``)
eeladder.ledger_*
kernels.rw_step_us     ladder: wall_s
kernels.exact_matrix_* oracle: wall_s (``spectral``, ``q4``, ``q3``)
kernels.stationary_*   oracle: wall_s (``q3``)
rng.*                  ladder: wall_s (about 3 scalar draws per level-step);
                       segment: wall_s (one bond draw per lattice edge per
                       move)
statespace.*           all: setup_s; oracle: wall_s (``spectral``, ``q4``)
spectral.eigen_*       oracle: wall_s (``spectral``, ``q4``)
spectral.tv_*          ladder: wall_s (``q1``, ``q2``)
swcut.*                segment: wall_s (``segment_swcut``,
                       ``swcut_vs_gibbs``); polyfit: wall_s
swcut.*.<size> probes  scaling evidence on segment and polyfit; not compared
                       end to end (a 64x64 ``segment`` run is too long for a
                       workload)
netpbm.*               no predicted move (segment, polyfit)
experiments.*          ladder: wall_s (``run`` writes one CSV row per
                       level-step)
config.validate_ms     all: setup_s
trace.*                harness: tracing overhead and the unattributed rest
=====================  =====================================================

``swcut.sweeps_to_target.*`` and ``swcut.move_us`` together split the
``swcut_vs_gibbs`` time into statistical efficiency and cost per step: a
pick-rule change moves the first, a faster move the second.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# ---------------------------------------------------------------------------
# Experiment calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One experiment call of a workload pass."""

    label: str        # name in reports, unique within a workload
    experiment: str
    overrides: dict   # config keys besides experiment and seed
    statistical: bool = True  # apply the statistical gates (full sizes only)

    def raw_config(self, seed: int) -> dict:
        raw = json.loads(json.dumps(self.overrides))
        raw["experiment"] = self.experiment
        raw["seed"] = seed
        if self.experiment in ("segment", "swcut_vs_gibbs"):
            raw.setdefault("segmentation", {}).setdefault("image", {})[
                "image_seed"] = seed
        return raw


def build_image(config):
    """The synthetic (image, ground truth) a segmentation config describes."""
    from eelab.swcut import make_two_region_image

    img = config.segmentation.image
    return make_two_region_image(img.width, img.height, means=tuple(img.means[:2]),
                                 noise_sd=img.noise_sd, seed=img.image_seed,
                                 layout=img.layout)


def _seg(**keys) -> dict:
    image = {k: keys.pop(k) for k in ("width", "height") if k in keys}
    if image:
        keys["image"] = image
    return {"segmentation": keys}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        "ladder",
        "the per-step equi-energy loop (eeladder, RandomWalkKernel.step, rng) "
        "plus per-row CSV output; single-chain run and multi-replicate q1/q2",
        (
            # 2 levels on the parallel schedule with the full per-step
            # trace.csv; CSV formatting is about 45% of its time
            Call("run", "run", {}),
            # q1 covers both jump modes and q2 both schedules; two
            # replicates each, so a replicate-batched engine shows too
            Call("q1", "q1", {"replicates": 2}),
            Call("q2", "q2", {"replicates": 2}),
        ),
    ),
    Workload(
        "segment",
        "SW-cut cluster formation (union-find) on fixed-means segmentation; "
        "bypasses the poly_fit region-likelihood delta",
        (
            # 32x32 halves, threshold init, swcut: large clusters
            Call("segment_swcut", "segment", {}),
            # random init until 95% agreement: small early clusters and
            # both samplers; the repo's time-to-accuracy metric
            Call("swcut_vs_gibbs", "swcut_vs_gibbs", {"replicates": 8}),
        ),
    ),
    Workload(
        "polyfit",
        "whole-region lstsq refits of the poly_fit likelihood in Gibbs site "
        "updates and SW-cut moves at 32x32",
        (
            Call("segment_gibbs", "segment",
                 _seg(region_mode="poly_fit", order=1, sampler="gibbs",
                      sweeps=3)),
            Call("segment_swcut", "segment",
                 _seg(region_mode="poly_fit", order=1, sampler="swcut",
                      sweeps=2)),
        ),
    ),
    Workload(
        "oracle",
        "exact-matrix builds, dense eigensolves and stationary lstsq solves "
        "on ~1000-state double wells; bulk ledger fills read by ring",
        (
            # n = 1001: exact-matrix Python loops plus eigvalsh
            Call("spectral", "spectral", {"model": {"points": 1001}}),
            Call("q4", "q4", {"model": {"points": 1001}}),
            # n = 201: idealized jump matrix, ledger_from_iid then
            # empirical_jump_chain_matrix, lstsq stationary solves
            Call("q3", "q3", {"model": {"points": 201}, "replicates": 10}),
        ),
    ),
)}

# Tiny instances of all eight experiments: the --smoke passes, and the
# coverage suite of the traced run (see spans.py), which runs those the
# workload does not, so every layer metric is measured on every workload.
# ``run``, ``q1`` and ``q2`` cannot shrink further: their step counts are
# not among the keys the benchmark sets.
TINY = {c.experiment: c for c in (
    Call("run", "run", {}, statistical=False),
    Call("q1", "q1", {"replicates": 1}, statistical=False),
    Call("q2", "q2", {"replicates": 1}, statistical=False),
    Call("q3", "q3", {"model": {"points": 21}, "replicates": 1},
         statistical=False),
    Call("spectral", "spectral", {"model": {"points": 21}}, statistical=False),
    Call("q4", "q4", {"model": {"points": 21}}, statistical=False),
    Call("segment", "segment", _seg(width=8, height=8, sweeps=1),
         statistical=False),
    Call("swcut_vs_gibbs", "swcut_vs_gibbs",
         {"replicates": 1, **_seg(width=8, height=8)}, statistical=False),
)}


def smoke_calls(workload: Workload) -> tuple:
    """The workload's calls at tiny size, keeping its region-model keys."""
    out = []
    for call in workload.calls:
        tiny = TINY[call.experiment]
        overrides = json.loads(json.dumps(tiny.overrides))
        seg = call.overrides.get("segmentation", {})
        for key in ("region_mode", "order", "sampler"):
            if key in seg:
                overrides.setdefault("segmentation", {})[key] = seg[key]
        out.append(Call(call.label, call.experiment, overrides,
                        statistical=False))
    return tuple(out)


def coverage_calls(workload: Workload) -> tuple:
    """Tiny calls of every experiment the workload does not run."""
    ran = {c.experiment for c in workload.calls}
    return tuple(Call(f"coverage.{c.experiment}", c.experiment, c.overrides,
                      statistical=False)
                 for name, c in TINY.items() if name not in ran)


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------
#
# Each bound is pinned here, independent of the code it checks. The
# statistical ones apply only at full size, where they hold with a wide
# margin (tv_level0 and median_final_tv run 0.01-0.12 over seeds; ground
# truth agreement is 1.0; speedup_ratio is about 10).

TV_BOUND = 0.25
AGREEMENT_BOUND = 0.9
POSTERIOR_RTOL = 1e-9
DELTA_STEPS = 24  # sampler steps per delta check (see _check_deltas)
EXACT_GAP_TOL = 1e-12


class CheckFailed(Exception):
    """An experiment's output failed its correctness gate."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _summary(out: Path) -> dict:
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check_ladder_runs(summary: dict, replicates: int, statistical: bool):
    for variant, s in summary.items():
        if statistical:
            _require(s["median_final_tv"] < TV_BOUND,
                     f"{variant}: median_final_tv {s['median_final_tv']}")
            _require(s["reached_second_mode"] == replicates,
                     f"{variant}: {s['reached_second_mode']} of {replicates} "
                     "replicates reached the second mode")


def _check_deltas(config, image) -> None:
    """Each sampler step's returned log posterior change must equal the
    change of the recomputed posterior_logdensity.

    The ``segment`` calls start from threshold init, where few moves
    relabel anything, so their final_log_posterior alone cannot show a
    wrong delta. This runs DELTA_STEPS SW-cut moves and as many Gibbs site
    updates from a random labeling of the same image and region model,
    where most moves relabel pixels.
    """
    from eelab.rng import RandomStream
    from eelab.swcut import (GibbsSiteSampler, Labeling, SwCutSampler,
                             edge_affinity, initial_labeling,
                             posterior_logdensity)

    seg = config.segmentation
    cfg = seg.region_config()
    rng = RandomStream.from_seed(config.seed)
    aff = edge_affinity(image, p_max=seg.p_max, p_min=seg.p_min, scale=seg.scale)
    samplers = (SwCutSampler(image, seg.n_labels, seg.beta, cfg, aff),
                GibbsSiteSampler(image, seg.n_labels, seg.beta, cfg))

    def logpost(lab):
        W = Labeling(lab.reshape(image.height, image.width), seg.n_labels)
        return posterior_logdensity(image, W, seg.beta, cfg)

    for sampler in samplers:
        lab = initial_labeling(image, seg.n_labels, "random", rng).flat.copy()
        before = logpost(lab)
        for k in range(DELTA_STEPS):
            delta = sampler.step(lab, rng)
            after = logpost(lab)
            _require(abs(delta - (after - before))
                     <= POSTERIOR_RTOL * max(1.0, abs(before)),
                     f"{type(sampler).__name__} step {k}: returned delta "
                     f"{delta!r}, recomputed {after - before!r}")
            before = after


def _check_segment(out: Path, config, statistical: bool):
    from eelab.netpbm import read_pgm
    from eelab.swcut import Labeling, posterior_logdensity

    seg = config.segmentation
    image, _ = build_image(config)
    gray = read_pgm(out / "labels.pgm").pixels
    labels = 1 + (gray * (seg.n_labels - 1) + 0.5).astype(int)
    W = Labeling(labels, seg.n_labels)
    summary = _summary(out)
    expect = posterior_logdensity(image, W, seg.beta, seg.region_config())
    got = summary["final_log_posterior"]
    _require(got is not None and
             abs(got - expect) <= POSTERIOR_RTOL * max(1.0, abs(expect)),
             f"final_log_posterior {got!r} vs recomputed {expect!r}")
    _check_deltas(config, image)
    if statistical:
        _require(summary["ground_truth_agreement"] >= AGREEMENT_BOUND,
                 f"ground_truth_agreement {summary['ground_truth_agreement']}")


def _check_mixing(out: Path, statistical: bool):
    with open(out / "mixing.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    sweeps = [float(r.split(",")[2]) for r in rows]
    _require(len(sweeps) > 0, "mixing.csv has no rows")
    if statistical:
        _require(all(math.isfinite(v) for v in sweeps),
                 "a replicate never reached the target agreement")
        ratio = _summary(out)["speedup_ratio"]
        _require(ratio is not None and ratio > 1.0, f"speedup_ratio {ratio}")


def _check_q3(out: Path, statistical: bool):
    summary = _summary(out)
    ideal = summary["idealized_kernel"]
    _require(ideal["stationary_gap"] <= EXACT_GAP_TOL,
             f"idealized stationary_gap {ideal['stationary_gap']}")
    _require(ideal["reversibility_gap"] <= EXACT_GAP_TOL,
             f"idealized reversibility_gap {ideal['reversibility_gap']}")
    if statistical:
        by_size = sorted((int(k), v) for k, v in
                         summary["median_tv_by_ledger_size"].items())
        tvs = [v for _, v in by_size]
        _require(all(a > b for a, b in zip(tvs, tvs[1:])),
                 f"median TV does not fall with ledger size: {by_size}")


def _check_q4(out: Path):
    summary = _summary(out)
    _require(summary["mis_matched_bound"] == "alternate",
             f"mis_matched_bound {summary['mis_matched_bound']!r}")
    _require(summary["mixture_beats_local"] is True, "mixture_beats_local")


def check_call(call: Call, config, out: Path) -> None:
    """Raise CheckFailed unless the call's artifacts pass its gate."""
    _require((out / "DONE").is_file(), "DONE sentinel missing")
    exp, stat = call.experiment, call.statistical
    if exp == "run":
        tv = _summary(out)["tv_level0"]
        if stat:
            _require(tv is not None and tv < TV_BOUND, f"tv_level0 {tv}")
    elif exp in ("q1", "q2"):
        _check_ladder_runs(_summary(out), config.replicates, stat)
    elif exp == "segment":
        _check_segment(out, config, stat)
    elif exp == "swcut_vs_gibbs":
        _check_mixing(out, stat)
    elif exp == "q3":
        _check_q3(out, stat)
    elif exp == "q4":
        _check_q4(out)
    elif exp == "spectral":
        with open(out / "spectral.json", encoding="utf-8") as fh:
            reports = json.load(fh)
        _require(reports["mis"]["matched_bound"] == "alternate",
                 f"mis matched_bound {reports['mis']['matched_bound']!r}")
