"""Replicates and eigensolves in forked workers: experiments._replicate_map.

q1, q2 and swcut_vs_gibbs hand their per-seed runs to _replicate_map,
and spectral and q4 their local and mixture eigensolves; on Linux it
spreads them over a fork pool of one worker per usable CPU and runs them
in this process when that is one worker (for the eigensolves, one worker
per solve's BLAS threads). The usable CPUs and those threads are set here
by replacing os.sched_getaffinity and experiments._solver_threads, so
both paths run on any machine: the pooled path must write the bytes the
in-process path writes, fail with its message, and leave no process
behind.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import eelab
from eelab import experiments, spectral
from eelab.cli import main
from eelab.errors import EelabError, NumericError
from eelab.rng import RandomStream

SRC = str(Path(eelab.__file__).resolve().parent.parent)

LADDER = {"seed": 16, "model": {"points": 21}, "tv_checkpoints": 5,
          "ladder": {"macro_steps": 1500, "steps_per_level": 1500, "burn_in": 100,
                     "p_jump": 0.2}}
CONFIGS = {
    "q1": LADDER,
    "q2": {**LADDER, "ladder": {**LADDER["ladder"], "n_levels": 3}},
    "swcut_vs_gibbs": {"seed": 27, "segmentation": {"image": {"width": 8,
                                                              "height": 8}}},
}


def _usable_cpus(monkeypatch, n, solver_threads=1):
    """n usable CPUs, and a dense solve that keeps solver_threads of them
    busy (the test process's own BLAS may run more)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(experiments, "_solver_threads", lambda: solver_threads)


def _run(tmp_path, name, experiment, raw):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"experiment": experiment, **raw}))
    out = tmp_path / name
    code = main([experiment, "--config", str(cfg), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if code == 0 else None
    return code, files


@pytest.mark.parametrize("cpus,pooled", [(2, True), (1, False)])
def test_calls_come_back_in_order(monkeypatch, cpus, pooled):
    """The results are the loop's, in arg order; pooled, they are made in
    at most cpus other processes, by a lambda, which cannot be pickled."""
    _usable_cpus(monkeypatch, cpus)
    got = experiments._replicate_map(lambda a: (a * a, os.getpid()), range(5))
    assert [v for v, _ in got] == [0, 1, 4, 9, 16]
    pids = {pid for _, pid in got}
    if pooled and sys.platform == "linux":
        assert os.getpid() not in pids and len(pids) <= cpus
    else:
        assert pids == {os.getpid()}
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(sys.platform != "linux", reason="no pool: os._exit would end pytest")
def test_a_worker_that_dies_is_a_package_error(monkeypatch):
    """A worker killed mid-call (here it exits; the kernel's OOM killer
    would do the same) fails the call with an EelabError, which the CLI
    reports as exit 2, and leaves no worker behind."""
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(EelabError, match="^a replicate worker died: "):
        experiments._replicate_map(lambda a: os._exit(3) if a == 1 else a, range(3))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("replicates", [3, 1])
@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_pooled_and_in_process_runs_write_the_same_bytes(tmp_path, monkeypatch,
                                                         experiment, replicates):
    """Three replicates split unevenly over two workers; one runs in this
    process either way."""
    raw = {**CONFIGS[experiment], "replicates": replicates}
    runs = []
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        runs.append(_run(tmp_path, f"cpus{cpus}", experiment, raw))
        assert multiprocessing.active_children() == []
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


class _FailingStreams:
    """RandomStream whose from_seed refuses one seed."""

    def __init__(self, seed):
        self.seed = seed

    def from_seed(self, seed):
        if seed == self.seed:
            raise NumericError(f"replicate of seed {seed} failed")
        return RandomStream.from_seed(seed)


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_a_failing_replicate_fails_the_run_as_the_loop_does(tmp_path, capsys,
                                                            monkeypatch, experiment):
    """A NumericError in the second of three replicates exits 2 with the
    same message pooled as in process, and no worker outlives the call."""
    raw = {**CONFIGS[experiment], "replicates": 3}
    bad = raw["seed"] + 1
    if experiment == "swcut_vs_gibbs":
        monkeypatch.setattr(experiments, "RandomStream", _FailingStreams(bad))
    else:
        real = experiments.run_ladder

        def run_ladder(model, ladder, seed, **kw):
            if seed == bad:
                raise NumericError(f"replicate of seed {seed} failed")
            return real(model, ladder, seed, **kw)

        monkeypatch.setattr(experiments, "run_ladder", run_ladder)
    errors = []
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        assert _run(tmp_path, f"cpus{cpus}", experiment, raw) == (2, None)
        errors.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1] == f"eelab: error: replicate of seed {bad} failed\n"


def test_importing_the_experiments_leaves_multiprocessing_out():
    """The pool's modules load only when a pool is made, so they add
    nothing to an import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, eelab.config, eelab.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout == "[]\n"


SPECTRA = {
    "default-well": {},
    "coarse-cells": {"model": {"points": 201}, "q4": {"coarse_cells": 64}},
    "potts-3x3": {"model": {"kind": "potts_grid", "width": 3, "height": 3,
                            "labels": 2, "beta": 0.3}},
}


def _solves_in_workers_only(monkeypatch):
    """A dense solve made in this process fails the run, so a pooled run
    that succeeds made every one of them in a worker."""
    parent, solve = os.getpid(), experiments._owned_spectrum

    def owned_spectrum(K, pi):
        if os.getpid() == parent:
            raise EelabError("a dense solve ran in the parent")
        return solve(K, pi)

    monkeypatch.setattr(experiments, "_owned_spectrum", owned_spectrum)


@pytest.mark.parametrize("case", sorted(SPECTRA))
@pytest.mark.parametrize("experiment", ["spectral", "q4"])
def test_pooled_and_in_process_spectra_write_the_same_bytes(tmp_path, monkeypatch,
                                                            experiment, case):
    """The local and the mixture solves of each space run in workers on
    two CPUs and here on one, and write the same bytes: the default well,
    q4's coarse space of 64 cells beside a 201-point fine one, and a 3x3
    potts_grid."""
    runs = []
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        with monkeypatch.context() as patch:
            if cpus > 1 and sys.platform == "linux":
                _solves_in_workers_only(patch)
            runs.append(_run(tmp_path, f"cpus{cpus}", experiment, SPECTRA[case]))
        assert multiprocessing.active_children() == []
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("experiment", ["spectral", "q4"])
def test_a_failing_mixture_task_fails_the_run_as_in_process(tmp_path, capsys,
                                                            monkeypatch, experiment):
    """A NumericError in the mixture task (no moment tolerance passes Liu's
    check; forked workers inherit the patch) exits 2 with the same message
    pooled as in process, and no worker outlives the call."""
    monkeypatch.setattr(spectral, "MIS_MOMENT_TOL", -1.0)
    errors = []
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        assert _run(tmp_path, f"cpus{cpus}", experiment, {}) == (2, None)
        errors.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1]
    assert errors[0].startswith("eelab: error: closed-form MIS spectrum disagrees "
                                "with the kernel: eigenvalue sum ")


@pytest.mark.parametrize("cpus,threads,pooled", [(2, 2, False), (4, 2, True),
                                                 (3, 2, False)])
def test_spectra_leave_each_solve_its_blas_threads(tmp_path, monkeypatch, cpus,
                                                   threads, pooled):
    """A worker per CPU would oversubscribe a BLAS that runs its own
    threads, so the solves are spread over one worker per solve's threads:
    with 2 usable CPUs and a 2-thread BLAS they run here, with 4 in two
    workers."""
    _usable_cpus(monkeypatch, cpus, threads)
    solve, pids = experiments._owned_spectrum, []

    def owned_spectrum(K, pi):
        pids.append(os.getpid())
        return solve(K, pi)

    monkeypatch.setattr(experiments, "_owned_spectrum", owned_spectrum)
    assert _run(tmp_path, "run", "spectral", {})[0] == 0
    assert pids == ([] if pooled else [os.getpid()] * 2)
    assert multiprocessing.active_children() == []


def test_solver_threads_count_this_process_threads():
    """Linux lists a process's threads in /proc/self/task; a running
    Python thread is one more."""
    if sys.platform != "linux":
        assert experiments._solver_threads() == 1
        return
    before = experiments._solver_threads()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert experiments._solver_threads() == before + 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
