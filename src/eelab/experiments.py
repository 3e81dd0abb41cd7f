"""Named experiments and their on-disk artifacts.

Every experiment writes into one output directory: CSV tables with a
fixed header row, a metadata.json sidecar (config echo, seed, package
version), any images, and finally a DONE sentinel. A directory whose
sentinel is missing holds an incomplete run. Reruns refuse to touch a
non-empty directory unless forced; a forced rerun removes the earlier
run's artifacts first (prepare_out_dir).

Replicate k of a multi-seed experiment uses integer seed (config seed
+ k); all randomness inside a replicate derives from that seed via
RandomStream splitting.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .eeladder import (
    MOVE_JUMP_FALLBACK,
    MOVE_NAMES,
    empirical_jump_chain_matrix,
    idealized_jump_matrix,
    jump_table,
    ledger_from_iid,
    level_chain_matrix,
    ring_table,
    run_ladder,
)
from .errors import ConfigError, EelabError, NumericError
from .kernels import (
    IndependenceKernel,
    RandomWalkKernel,
    reversibility_gap,
    stationary_distribution,
    stationary_gap,
)
from .netpbm import write_label_pgm, write_overlay_ppm
from .rng import RandomStream
from .spectral import (Partition, _owned_spectrum, coarsen, mis_spectrum, tv_distance,
                       with_mis_bounds)
from .spectral import eigen_spectrum, mis_gap_report  # noqa: F401 (spans.py wraps them)
from .statespace import LadderLevel, builtin_model, enumerate_distribution
from .swcut import (
    GibbsSiteSampler,
    Labeling,
    SwCutSampler,
    agreement,
    edge_affinity,
    initial_labeling,
    make_two_region_image,
    segment,
)

DONE_SENTINEL = "DONE"

# every file name an experiment writes; --force removes only these
ARTIFACTS = frozenset({
    DONE_SENTINEL, "metadata.json", "summary.json", "trace.csv", "tv_curves.csv",
    "first_passage.csv", "ledger_bias.csv", "spectral.json", "spectral.csv",
    "spectral_reports.json", "q4_summary.csv", "labels.pgm", "overlay.ppm",
    "mixing.csv",
})


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------


def write_csv(path: Path, header: list[str], rows) -> None:
    """UTF-8, LF line endings, every value written with ``str`` (floats,
    numpy's included, in their shortest round-trip form, bit-deterministic).

    rows may be any iterable of sequences, such as a zip of columns; each
    must have one value per header column.
    """
    width = len(header)
    line = ",".join(["%s"] * width) + "\n"  # %s formats with str
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != width:
                raise ConfigError(
                    f"row width {len(row)} does not match header {width}"
                )
            fh.write(line % tuple(row))


TRACE_CHUNK_ROWS = 16_384


def write_trace_csv(path: Path, model, ts) -> None:
    """A ladder run's trace.csv: one row per level-step, level 0 first,
    with the bytes write_csv writes for the same rows.

    Everything after a row's step is a function of its level, state,
    move type and accepted flag, so each combination in a level's trace
    is formatted once (found by np.unique of 8 * state + 2 * move type +
    accepted, which stays small however large the model). The rows are
    joined TRACE_CHUNK_ROWS at a time, to bound memory, from one list
    whose even slots are the step strings and odd slots the tails.
    """
    h = model.energies().tolist()
    ring = ring_table(model.energies(), ts.boundaries).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,level,state_id,energy,ring,move_type,accepted\n")
        for tr in ts.levels:
            keys, which = np.unique(8 * tr.states + 2 * tr.move_types + tr.accepted,
                                    return_inverse=True)
            tails = np.array([f",{tr.level},{x},{h[x]},{ring[x]},{MOVE_NAMES[m]},{a}\n"
                              for x, m, a in zip((keys >> 3).tolist(),
                                                 ((keys >> 1) & 3).tolist(),
                                                 (keys & 1).tolist())], dtype=object)
            for start in range(0, len(tr), TRACE_CHUNK_ROWS):
                stop = min(start + TRACE_CHUNK_ROWS, len(tr))
                parts = [""] * (2 * (stop - start))
                parts[::2] = map(str, range(start, stop))
                parts[1::2] = tails[which[start:stop]].tolist()
                fh.write("".join(parts))


def write_json(path: Path, obj) -> None:
    """obj as strict JSON: a NaN or an infinity is a NumericError raised
    before the file is opened."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: not strict JSON: {exc}") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def prepare_out_dir(out: Path, force: bool) -> None:
    """Make out, or, when forced, empty it of an earlier run's artifacts.

    A forced run into a directory that holds anything but regular files
    named in ARTIFACTS removes nothing and is a ConfigError naming those
    entries. Otherwise DONE goes first, which marks the old run
    incomplete, then every other artifact."""
    entries = sorted(out.iterdir()) if out.exists() else []
    if entries:
        if not force:
            raise ConfigError(
                f"output directory {out} is not empty; pass --force to overwrite"
            )
        foreign = [e.name for e in entries
                   if e.name not in ARTIFACTS or e.is_symlink() or not e.is_file()]
        if foreign:
            raise ConfigError(f"output directory {out} holds {', '.join(foreign)} "
                              "besides artifact files; --force removed nothing")
        for entry in sorted(entries, key=lambda e: e.name != DONE_SENTINEL):
            entry.unlink()
    out.mkdir(parents=True, exist_ok=True)


def finish(out: Path, config: ExperimentConfig) -> None:
    write_json(out / "metadata.json", {
        "version": __version__,
        "experiment": config.experiment,
        "seed": config.seed,
        "config": config.to_dict(),
    })
    with open(out / DONE_SENTINEL, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("done\n")


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _replicate_map(fn, args, threads=1):
    """[fn(a) for a in args], in order: on Linux a fork pool of one worker
    per `threads` usable CPUs (the CPUs one call keeps busy), at most one
    per arg, makes the calls, and where that is one worker, or elsewhere,
    this process makes them.

    fn reaches the workers by fork inheritance, as the pool initializer's
    argument, and is never pickled; each arg and result is. A failing
    call raises here as in the loop, the first failure in arg order; a
    worker that dies is an EelabError; no worker outlives this call. A
    worker serves several args with what fn closes over, which must give
    each call the result a fresh copy would: for the segmentation
    samplers, tests/test_swcut.py::TestSegment::
    test_reused_sampler_runs_as_fresh_ones holds that. q1, q2 and
    swcut_vs_gibbs map their seeds here, and spectral and q4 their
    eigensolves (_kernel_reports)."""
    args = list(args)
    workers = (min(len(args), len(os.sched_getaffinity(0)) // threads)
               if sys.platform == "linux" else 1)
    if workers <= 1:
        return [fn(a) for a in args]
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=_adopt, initargs=(fn,)) as pool:
            return list(pool.map(_call_adopted, args))
    except BrokenExecutor as exc:  # a worker was killed, say for memory
        raise EelabError(f"a replicate worker died: {exc}") from None


_adopted = None  # a pool worker's fn


def _adopt(fn) -> None:
    global _adopted
    _adopted = fn


def _call_adopted(arg):
    return _adopted(arg)


def _solver_threads() -> int:
    """The CPUs a dense solve keeps busy: this process's OS threads, as a
    threaded BLAS (OpenBLAS: one per CPU unless pinned) uses all of them."""
    return len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 1


def _tv_curve(traceset, level, n_states, pi, checkpoints):
    """(step, tv) pairs at evenly spaced checkpoints over the trace: the
    TV of the post-burn-in visit counts up to each checkpoint, which one
    bincount per segment between checkpoints keeps current."""
    states = traceset.levels[level].states
    n = len(states)
    counts = np.zeros(n_states, dtype=np.int64)
    done = traceset.burn_in  # counts holds states[burn_in:done]
    out = []
    for k in range(1, checkpoints + 1):
        upto = max(1, (n * k) // checkpoints)
        if upto > done:
            counts += np.bincount(states[done:upto], minlength=n_states)
            done = upto
        total = counts.sum()
        if total == 0:
            out.append((upto, 1.0))
            continue
        out.append((upto, tv_distance(counts / total, pi.probs)))
    return out


def _mode_targets(model):
    """Start state (left-mode bottom) and target mask (right-mode basin
    floor, indexed by state) of a two-mode 1-D model."""
    h = model.energies()
    n = len(h)
    lo, hi = n // 4, max(n // 4 + 1, 3 * n // 4)
    barrier = int(np.argmax(h[lo:hi])) + lo
    left = int(np.argmin(h[:barrier])) if barrier > 0 else 0
    right = barrier + int(np.argmin(h[barrier:]))
    floor = h[right] + 0.25
    target = (np.arange(n) >= barrier) & (h <= floor)
    return left, target


def _first_passage(states: np.ndarray, target: np.ndarray) -> int:
    """Index of the first state in the target mask, or -1."""
    hits = np.flatnonzero(target[states])
    return int(hits[0]) if len(hits) else -1


def _ladder_runs(config, model, variations, out: Path):
    """Run the ladder over (label, overrides) variations x replicates and
    write TV curves, first-passage steps, and a summary.

    A replicate runs every variation on its seed, each passing its run
    to the next, whose run_ladder takes the top level from it when the
    variations agree on it (they differ only in jump_mode or schedule),
    and keeps only its rows, so its runs are dropped when it returns.
    Replicates run through _replicate_map; rows are written variation by
    variation, then seed by seed."""
    pi = enumerate_distribution(model, config.ladder.levels()[0])
    init, target = _mode_targets(model)
    arms = []
    for label, base_overrides in variations:
        overrides = dict(base_overrides)
        if config.ladder.init_state is None:
            overrides["init_state"] = init
        ladder = config.ladder.build(**overrides)
        arms.append((label, ladder, ladder.first_record_step()))

    def replicate(seed):
        """Per arm: curve rows, passage row, final TV, fallback share."""
        ts = None
        rows = []
        for label, ladder, warm in arms:
            ts = run_ladder(model, ladder, seed, reuse=ts)
            curve = _tv_curve(ts, 0, model.size, pi, config.tv_checkpoints)
            states = ts.levels[0].states
            moves = ts.levels[0].move_types
            rows.append(([(label, seed, s, tv) for s, tv in curve],
                         (label, seed, _first_passage(states, target),
                          -1 if warm is None else _first_passage(states[warm:], target)),
                         curve[-1][1], float((moves == MOVE_JUMP_FALLBACK).mean())))
        return rows

    results = _replicate_map(replicate,
                             [config.seed + k for k in range(config.replicates)])
    summary, curves, passages = {}, [], []
    for i, (label, _, _) in enumerate(arms):
        reps = [r[i] for r in results]
        curves += [row for curve, *_ in reps for row in curve]
        rows = [passage for _, passage, _, _ in reps]
        passages += rows
        fps = [fp for _, _, fp, _ in rows if fp >= 0]
        warm_fps = [fp for *_, fp in rows if fp >= 0]
        summary[label] = {
            "median_final_tv": float(np.median([tv for _, _, tv, _ in reps])),
            "median_first_passage": float(np.median(fps)) if fps else None,
            "median_first_passage_after_warmup": (
                float(np.median(warm_fps)) if warm_fps else None),
            "reached_second_mode": len(fps),
            "mean_fallback_share": float(np.mean([share for *_, share in reps])),
        }
    write_csv(out / "tv_curves.csv", ["variant", "seed", "step", "tv"], curves)
    write_csv(out / "first_passage.csv",
              ["variant", "seed", "first_passage_step",
               "first_passage_after_warmup_step"], passages)
    write_json(out / "summary.json", summary)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def exp_run(config: ExperimentConfig, out: Path) -> None:
    """Single ladder run with the full trace exported."""
    model = config.build_model()
    ts = run_ladder(model, config.ladder.build(), config.seed)
    write_trace_csv(out / "trace.csv", model, ts)
    pi = enumerate_distribution(model, config.ladder.levels()[0])
    counts = ts.empirical_counts(0, model.size)
    tv = (tv_distance(counts / counts.sum(), pi.probs)
          if counts.sum() > 0 else None)
    summary = {
        "tv_level0": tv,
        "acceptance_rate": {
            str(tr.level): (float(tr.accepted.mean()) if len(tr) else None)
            for tr in ts.levels
        },
        "ledger_totals": [ts.ledger(i).total for i in range(len(ts.levels))],
    }
    write_json(out / "summary.json", summary)


def exp_q1(config: ExperimentConfig, out: Path) -> None:
    """Restricted vs unrestricted jumps on a deep two-mode target."""
    model = config.build_model()
    _ladder_runs(config, model,
                 [("restricted", {"jump_mode": "restricted"}),
                  ("unrestricted", {"jump_mode": "unrestricted"})], out)


def exp_q2(config: ExperimentConfig, out: Path) -> None:
    """Parallel vs serial ladder schedules, same target and budget."""
    model = config.build_model()
    _ladder_runs(config, model,
                 [("parallel", {"schedule": "parallel"}),
                  ("serial", {"schedule": "serial"})], out)


def exp_q3(config: ExperimentConfig, out: Path) -> None:
    """Ledger-size bias sweep against the exact ring-truncated kernel."""
    model = config.build_model()
    levels = config.ladder.levels()
    boundaries = config.ladder.build().jump_boundaries()
    pi = enumerate_distribution(model, levels[0])
    p_jump = float(config.q3["p_jump"])

    # every jump matrix below shares the acceptances of this table
    table = jump_table(model, levels[0], levels[1], boundaries)
    K_ideal = idealized_jump_matrix(table)
    K_ideal_chain = level_chain_matrix(table, table.ideal, p_jump)
    ideal = {
        "stationary_gap": stationary_gap(K_ideal, pi.probs),
        "reversibility_gap": reversibility_gap(K_ideal, pi.probs),
        "chain_tv": tv_distance(stationary_distribution(K_ideal_chain), pi.probs),
    }

    rows = []
    medians = {}
    for size in config.q3["ledger_sizes"]:
        tvs = []
        for k in range(config.replicates):
            seed = config.seed + k
            rng = RandomStream.from_seed(seed)
            ledger = ledger_from_iid(model, levels[1], size, rng)
            K = empirical_jump_chain_matrix(table, ledger, p_jump)
            tv = tv_distance(stationary_distribution(K), pi.probs)
            rows.append((size, seed, tv))
            tvs.append(tv)
        medians[str(size)] = float(np.median(tvs))
    write_csv(out / "ledger_bias.csv", ["ledger_size", "seed", "tv"], rows)
    write_json(out / "summary.json",
               {"idealized_kernel": ideal, "median_tv_by_ledger_size": medians,
                "p_jump": p_jump})


def _kernel_reports(spaces, alpha):
    """Spectral reports of the local kernel of each (prefix, local, pi, q)
    space, of the independence (MIS) kernel that proposes from q, and of
    their alpha-mixture, all targeting pi: prefix + "local", "mis" and
    "mixture", space by space.

    Each space is two _replicate_map tasks, whose dense eigensolves
    overlap where the CPUs outnumber a solve's BLAS threads: one solves
    the local matrix; the other checks Liu's MIS eigenvalues against the
    MIS matrix (mis_spectrum), then forms and solves the mixture in it
    with MixtureKernel.exact_matrix's arithmetic. The mixture needs alpha
    times the local matrix on its support, so this process builds that
    matrix once and frees it before the map. Each process then holds one
    n x n matrix at a time, besides row strips and LAPACK's copy.
    """
    kept = []
    for _, local, pi, q in spaces:
        jump = IndependenceKernel(pi, q)
        K_local = local.exact_matrix()
        support = np.flatnonzero(K_local != 0.0)
        kept.append((local, jump, pi, q, support, alpha * K_local.flat[support]))
        del K_local

    def task(i):
        local, jump, pi, q, support, scaled = kept[i // 2]
        if i % 2 == 0:
            return [_owned_spectrum(local.exact_matrix(), pi)]
        K = jump.exact_matrix()
        mis = with_mis_bounds(mis_spectrum(K, pi, q), pi, q)
        K *= 1.0 - alpha
        K.flat[support] += scaled
        return [mis, _owned_spectrum(K, pi)]

    results = _replicate_map(task, range(2 * len(kept)), _solver_threads())
    names = [prefix + name for prefix, *_ in spaces
             for name in ("local", "mis", "mixture")]
    return dict(zip(names, (rep for reps in results for rep in reps)))


def _fine_space(config: ExperimentConfig):
    """The configured model's level-0 and level-1 laws and level-0 walk."""
    model = config.build_model()
    levels = config.ladder.levels()
    return (enumerate_distribution(model, levels[0]),
            enumerate_distribution(model, levels[1]),
            RandomWalkKernel(model, levels[0]))


def _write_reports(out: Path, json_name: str, csv_name: str, reports) -> None:
    """Every report as JSON, and one CSV row per report (blank for a
    bound or ratio the kernel does not have)."""
    write_json(out / json_name, {name: rep.to_dict() for name, rep in reports.items()})
    write_csv(out / csv_name,
              ["kernel", "lambda2", "gap", "ratio_min", "ratio_max",
               "bound_printed", "bound_alternate", "matched_bound"],
              [(name, rep.lambda2, rep.gap,
                *("" if v is None else v for v in (
                    rep.ratio_min_pi_over_q, rep.ratio_max_pi_over_q,
                    rep.bound_printed, rep.bound_alternate, rep.matched_bound)))
               for name, rep in reports.items()])


def exp_spectral(config: ExperimentConfig, out: Path) -> None:
    """Spectral reports for the local, independence, and mixture kernels."""
    pi, q, local = _fine_space(config)
    reports = _kernel_reports([("", local, pi, q)], float(config.q4["alpha"]))
    _write_reports(out, "spectral.json", "spectral.csv", reports)


def exp_q4(config: ExperimentConfig, out: Path) -> None:
    """Gap bounds and ratio extremes on the fine and coarsened spaces.

    The summary records which closed-form bound the exact second
    eigenvalue matches; the two candidates generally differ and only one
    of them is exact.
    """
    pi, q, local = _fine_space(config)
    alpha = float(config.q4["alpha"])
    n = len(pi)
    m = min(int(config.q4["coarse_cells"]), n)
    part = Partition((np.arange(n) * m) // n)
    pi_c, q_c = coarsen(pi, part), coarsen(q, part)

    # coarse-space kernels: local walk over the coarse cells (level 0 of a
    # model whose energies are -log pi_c), independence jumps from the
    # coarsened proposal, and their mixture
    coarse_model = builtin_model("energy_table",
                                 energies=(-np.log(pi_c.probs)).tolist())
    coarse_local = RandomWalkKernel(coarse_model, LadderLevel(0, 1.0, -math.inf))
    reports = _kernel_reports([("", local, pi, q),
                               ("coarse_", coarse_local, pi_c, q_c)], alpha)
    fine, coarse = reports["mis"], reports["coarse_mis"]

    _write_reports(out, "spectral_reports.json", "q4_summary.csv", reports)
    write_json(out / "summary.json", {
        "alpha": alpha,
        "gap_local": reports["local"].gap,
        "gap_mis": reports["mis"].gap,
        "gap_mixture": reports["mixture"].gap,
        "mixture_beats_local": reports["mixture"].gap > reports["local"].gap,
        "fine_ratio_extremes": [fine.ratio_min_pi_over_q, fine.ratio_max_pi_over_q],
        "coarse_ratio_extremes": [coarse.ratio_min_pi_over_q,
                                  coarse.ratio_max_pi_over_q],
        "coarse_cells": m,
        "mis_matched_bound": reports["mis"].matched_bound,
        "printed_bound_matches_lambda2":
            reports["mis"].matched_bound in ("printed", "both"),
        "alternate_bound_matches_lambda2":
            reports["mis"].matched_bound in ("alternate", "both"),
    })


def _build_image(config: ExperimentConfig):
    img_cfg = config.segmentation.image
    if img_cfg.kind == "pgm":
        return img_cfg.pgm_image(), None
    image, truth = make_two_region_image(
        img_cfg.width, img_cfg.height,
        means=tuple(img_cfg.means[:2]),
        noise_sd=img_cfg.noise_sd,
        seed=img_cfg.image_seed,
        layout=img_cfg.layout,
    )
    return image, truth


def _sampler(seg, image, kind: str):
    """The "swcut" or "gibbs" sampler of the segmentation section on image.

    Construction draws nothing, and a sampler's likelihood rebuilds its
    statistics when handed a run's new label array, so one sampler may
    serve many runs."""
    cfg = seg.region_config()
    if kind == "gibbs":
        return GibbsSiteSampler(image, seg.n_labels, seg.beta, cfg)
    aff = edge_affinity(image, p_max=seg.p_max, p_min=seg.p_min, scale=seg.scale)
    return SwCutSampler(image, seg.n_labels, seg.beta, cfg, aff, seg.cluster_pick)


def exp_segment(config: ExperimentConfig, out: Path) -> None:
    """One segmentation run: label map, boundary overlay, energy trace."""
    seg = config.segmentation
    image, truth = _build_image(config)
    final, logposts = segment(_sampler(seg, image, seg.sampler), sweeps=seg.sweeps,
                              init=seg.init, seed=config.seed)
    write_label_pgm(out / "labels.pgm", final)
    write_overlay_ppm(out / "overlay.ppm", image, final)
    write_csv(out / "trace.csv", ["step", "log_posterior"],
              ((t, float(v)) for t, v in enumerate(logposts)))
    summary = {"sampler": seg.sampler, "sweeps": seg.sweeps,
               "final_log_posterior": float(logposts[-1]) if len(logposts) else None}
    if truth is not None:
        summary["ground_truth_agreement"] = agreement(final, truth)
    write_json(out / "summary.json", summary)


def _sweeps_to_agreement(sampler, image, truth, n_labels, rng, max_sweeps,
                         target, check_every):
    """Fractional sweeps until ground-truth agreement reaches the target."""
    lab = initial_labeling(image, n_labels, "random", rng).flat.copy()
    # shares lab's memory, so it sees every in-place step of the sampler
    current = Labeling(lab.reshape(image.height, image.width), n_labels)
    n = image.n_pixels
    for t in range(max_sweeps * n):
        sampler.step(lab, rng)
        if (t + 1) % check_every == 0 and agreement(current, truth) >= target:
            return (t + 1) / n
    return math.inf


def exp_swcut_vs_gibbs(config: ExperimentConfig, out: Path) -> None:
    """Sweeps-to-agreement distributions for cluster vs single-site moves."""
    seg = config.segmentation
    image, truth = _build_image(config)
    max_sweeps = int(config.mixing["max_sweeps"])
    target = float(config.mixing["target_agreement"])
    check_every = int(config.mixing["check_every"])

    samplers = [(name, _sampler(seg, image, name)) for name in ("swcut", "gibbs")]

    def replicate(seed):
        return [_sweeps_to_agreement(sampler, image, truth, seg.n_labels,
                                     RandomStream.from_seed(seed), max_sweeps,
                                     target, check_every)
                for _, sampler in samplers]

    seeds = [config.seed + k for k in range(config.replicates)]
    results = _replicate_map(replicate, seeds)
    write_csv(out / "mixing.csv", ["sampler", "seed", "sweeps_to_target"],
              [(name, seed, sweeps) for seed, row in zip(seeds, results)
               for (name, _), sweeps in zip(samplers, row)])

    # a median run that never reached the target (inf) is written as null
    med_sw, med_gb = (float(np.median(col)) for col in zip(*results))
    reached = math.isfinite(med_sw) and math.isfinite(med_gb)
    write_json(out / "summary.json", {
        "median_sweeps_swcut": med_sw if math.isfinite(med_sw) else None,
        "median_sweeps_gibbs": med_gb if math.isfinite(med_gb) else None,
        "speedup_ratio": med_gb / med_sw if reached else None,
        "target_agreement": target,
        "replicates": config.replicates,
    })


_EXPERIMENTS = {
    "run": exp_run,
    "spectral": exp_spectral,
    "segment": exp_segment,
    "q1": exp_q1,
    "q2": exp_q2,
    "q3": exp_q3,
    "q4": exp_q4,
    "swcut_vs_gibbs": exp_swcut_vs_gibbs,
}


def run_experiment(config: ExperimentConfig, out_dir=None, force: bool = False) -> Path:
    """Run the configured experiment; returns the output directory."""
    out = Path(out_dir if out_dir is not None
               else (config.out if config.out is not None
                     else os.path.join("runs", config.experiment)))
    prepare_out_dir(out, force)
    _EXPERIMENTS[config.experiment](config, out)
    finish(out, config)
    return out
