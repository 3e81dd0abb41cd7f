"""Isolated probes: per-operation cost of single public functions.

Each probe repeats one operation in batches until its time budget is
spent (at least three batches) and reports the median batch mean. The
SW-cut size probes start from the threshold labeling of a two-region
"halves" image, as the ``segment`` experiment does, and also report the
mean cluster size |V0| from the benchmark's own bond percolation.
"""

from __future__ import annotations

import statistics
import time

from spans import cluster_stats, percolation_input

SIZES = (3, 32, 64)
POLY_SIZES = (32, 64)


def per_op(op, budget: float, batch: int) -> float:
    """Median seconds per call of op()."""
    times = []
    deadline = time.perf_counter() + budget
    while len(times) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(batch):
            op()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


def span_cost_s(budget: float) -> float:
    """Seconds a Tracer wrapper adds to one call: a wrapped no-op method
    minus the plain one."""
    from spans import Tracer

    class Probe:
        def op(self):
            return None

    obj = Probe()
    plain = per_op(obj.op, budget, 2000)
    tracer = Tracer()
    tracer.wrap(Probe, "op", "probe.op")
    try:
        wrapped = per_op(obj.op, budget, 2000)
    finally:
        tracer.uninstall()
    return wrapped - plain


def _segmentation(size: int, seed: int, poly: bool):
    from eelab.config import validate_config
    from eelab.rng import RandomStream
    from eelab.swcut import edge_affinity, initial_labeling
    from workloads import build_image

    seg_keys = {"image": {"width": size, "height": size, "image_seed": seed}}
    if poly:
        seg_keys.update(region_mode="poly_fit", order=1)
    config = validate_config({"experiment": "segment", "segmentation": seg_keys})
    seg = config.segmentation
    image, _ = build_image(config)
    aff = edge_affinity(image, p_max=seg.p_max, p_min=seg.p_min, scale=seg.scale)
    rng = RandomStream.from_seed(seed)
    W = initial_labeling(image, seg.n_labels, seg.init, rng)
    return seg, image, aff, W, rng


def _moves(size: int, seed: int, poly: bool, budget: float):
    """(us per SW-cut move, mean |V0|) on a size x size image."""
    from eelab.swcut import SwCutSampler

    seg, image, aff, W, rng = _segmentation(size, seed, poly)
    sampler = SwCutSampler(image, seg.n_labels, seg.beta, seg.region_config(), aff)
    lab = W.flat.copy()
    snaps = []
    inp = percolation_input(image, seg)

    def move():
        if len(snaps) < 32:
            snaps.append((lab.copy(), inp))
        sampler.step(lab, rng)

    batch = max(1, 4096 // (size * size))
    us = 1e6 * per_op(move, budget, batch)
    return us, cluster_stats(snaps, seed)[0]


def run_probes(seed: int, budget: float) -> dict:
    """name -> value for every probe metric; budget is seconds per probe."""
    from eelab.config import validate_config
    from eelab.kernels import RandomWalkKernel
    from eelab.rng import RandomStream
    from eelab.swcut import GibbsSiteSampler, lattice_edges, region_loglik

    out = {}
    stream = RandomStream.from_seed(seed)
    out["rng.uniform_ns"] = 1e9 * per_op(stream.uniform, budget, 20000)
    n_edges = len(lattice_edges(32, 32)[0])  # one bond draw per edge per move
    out["rng.uniforms_ns_per_value"] = 1e9 * per_op(
        lambda: stream.uniforms(n_edges), budget, 200) / n_edges

    config = validate_config({"experiment": "run", "seed": seed})
    model = config.build_model()
    kernel = RandomWalkKernel(model, config.ladder.levels()[0])
    state = [model.size // 2]

    def rw_step():
        state[0] = kernel.step(state[0], stream)[0]

    out["kernels.rw_step_us"] = 1e6 * per_op(rw_step, budget, 5000)

    for size in SIZES:
        us, v0 = _moves(size, seed, False, budget)
        out[f"swcut.move_us.{size}x{size}"] = us
        out[f"swcut.v0_mean.{size}x{size}"] = v0
    for size in POLY_SIZES:
        tag = f"{size}x{size}"
        out[f"swcut.move_us.poly.{tag}"] = _moves(size, seed, True, budget)[0]
        seg, image, _, W, rng = _segmentation(size, seed, True)
        cfg = seg.region_config()
        gibbs = GibbsSiteSampler(image, seg.n_labels, seg.beta, cfg)
        lab = W.flat.copy()
        out[f"swcut.gibbs_site_us.poly.{tag}"] = 1e6 * per_op(
            lambda: gibbs.step(lab, rng), budget, 8)
        out[f"swcut.region_loglik_us.poly.{tag}"] = 1e6 * per_op(
            lambda: region_loglik(image, W, cfg), budget, 8)
    return out


N_PROBES = 5 + len(SIZES) + 3 * len(POLY_SIZES)  # timed probes, span_cost_s too
