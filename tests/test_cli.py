import json
import math
from bisect import bisect_right
from itertools import chain, repeat

import numpy as np
import pytest

from eelab import config as config_module
from eelab import experiments, kernels, netpbm
from eelab.cli import main
from eelab.config import load_config, validate_config
from eelab.eeladder import MOVE_JUMP_FALLBACK, MOVE_NAMES, LadderConfig, run_ladder
from eelab.errors import ConfigError, NumericError
from eelab.experiments import write_trace_csv
from eelab.netpbm import write_pgm
from eelab.spectral import SPECTRAL_CAP, tv_distance
from eelab.statespace import builtin_model, enumerate_distribution, geometric_ladder


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestLoadConfig:
    def test_minimal_q4_fills_defaults(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "q4"})
        cfg = load_config(path)
        assert cfg.q4["alpha"] == 0.5
        assert cfg.q4["coarse_cells"] == 8
        assert cfg.model["kind"] == "double_well_grid"

    def test_negative_temperature_names_key_path(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "run",
            "ladder": {"temperatures": [1.0, -2.0]},
        })
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "ladder.temperatures[1]" in str(err.value)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "q4",
                                       "ladder": {"bogus_knob": 3}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "ladder.bogus_knob" in str(err.value)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "q4", "bogus": 1})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "bogus" in str(err.value)

    def test_round_trip_identity(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "q1",
            "seed": 99,
            "replicates": 5,
            "model": {"kind": "energy_table", "energies": [0.0, 1.0, 0.5, 2.0]},
            "ladder": {"p_jump": 0.25, "macro_steps": 1234},
        })
        cfg = load_config(path)
        path2 = write_config(tmp_path, cfg.to_dict(), "echo.json")
        cfg2 = load_config(path2)
        assert cfg == cfg2

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_experiment_mismatch(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "q1"})
        with pytest.raises(ConfigError):
            load_config(path, experiment="q2")

    def test_model_param_errors_surface_at_load(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "run",
            "model": {"kind": "table", "weights": [1.0, -1.0]},
        })
        with pytest.raises(ConfigError):
            load_config(path)


    def test_temperatures_set_the_level_count(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "run",
            "ladder": {"temperatures": [1.0, 4.0, 16.0]},
        })
        cfg = load_config(path)
        assert cfg.ladder.n_levels == 3
        assert load_config(write_config(tmp_path, cfg.to_dict(), "echo.json")) == cfg


MALFORMED = [
    ({"mixing": {"max_sweeps": "x"}}, [], "mixing.max_sweeps"),
    ({"q4": {"alpha": "x"}}, [], "q4.alpha"),
    ({"q3": {"p_jump": None}}, [], "q3.p_jump"),
    ({"q3": {"ledger_sizes": [True]}}, [], "q3.ledger_sizes"),
    ({"segmentation": {"image": {"width": "8"}}}, [], "segmentation.image.width"),
    ({"seed": -5}, [], "seed"),
    ({}, ["--seed", "-5"], "seed"),
    ({"ladder": {"n_levels": 3, "temperatures": [1.0, 4.0]}}, [], "ladder.n_levels"),
    ({"ladder": {"ring_boundaries": [2.0, 1.0]}}, [], "ladder.ring_boundaries"),
    ({"model": {"points": "x"}}, [], "model.points"),
    ({"model": {"depth": None}}, [], "model.depth"),
    ({"model": {"bounds": []}}, [], "model.bounds"),
    ({"model": {"bounds": {}}}, [], "model.bounds"),
    ({"model": {"kind": ["table"]}}, [], "model.kind"),
    ({"model": {"kind": "table", "weights": "x"}}, [], "model.weights"),
    ({"model": {"depth": math.nan}}, [], "model.depth"),
    ({"segmentation": {"beta": math.inf}}, [], "segmentation.beta"),
    ({"segmentation": {"image": {"kind": "pgm", "path": 3}}}, [],
     "segmentation.image.path"),
    ({"ladder": {"truncations": [True]}}, [], "ladder.truncations"),
    ({"ladder": {"temperature_ratio": 1e300, "n_levels": 3}}, [],
     "ladder.temperature_ratio"),
    ({"ladder": {"temperatures": [1, 4, 2]}}, [], "ladder.temperatures[2]"),
    # its own id keeps the id of the ladder.temperature_ratio case above
    pytest.param({"ladder": {"temperature_ratio": 1}}, [], "ladder.temperature_ratio",
                 id="ladder.temperature_ratio(equal levels)"),
    ({"ladder": {"truncation_step": -1, "n_levels": 3}}, [],
     "ladder.truncation_step"),
    ({"ladder": {"truncations": [2.0, 1.0], "n_levels": 3}}, [],
     "ladder.truncations[1]"),
    ({"ladder": {"init_state": 99}}, [], "ladder.init_state"),
]


def _case_id(raw, extra, key_path):
    """The key path, tagged when the input comes from the command line or
    holds a non-finite number (which json writes as NaN or Infinity)."""
    try:
        json.dumps(raw, allow_nan=False)
        non_finite = ""
    except ValueError:
        non_finite = "(non-finite)"
    return key_path + ("(cli)" if extra else "") + non_finite


def test_q2_arms_run_one_step_budget(tmp_path, capsys):
    """Parallel macro_steps and serial steps_per_level must agree in q2."""
    cfg = write_config(tmp_path, {"experiment": "q2", "ladder": {"macro_steps": 500}})
    code = main(["q2", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("eelab: config error: ladder.steps_per_level: ")
    assert not (tmp_path / "out").exists()


POTTS_2X2 = {"kind": "potts_grid", "width": 2, "height": 2, "labels": 2,
             "beta": 0.5}

NEEDS = [
    ("q3", {"ladder": {"n_levels": 1}}, "ladder.n_levels"),
    ("q4", {"ladder": {"n_levels": 1}}, "ladder.n_levels"),
    ("spectral", {"ladder": {"temperatures": [1.0]}}, "ladder.n_levels"),
    ("q1", {"model": {"kind": "energy_table", "energies": [0.0, 1.0, 0.0]}},
     "model"),
    ("q2", {"model": {"kind": "energy_table", "energies": [0.0, 1.0, 0.0]}},
     "model"),
    # the file does not exist: the refusal comes before any read
    ("swcut_vs_gibbs", {"segmentation": {"image": {"kind": "pgm",
                                                   "path": "missing.pgm"}}},
     "segmentation.image.kind"),
    ("segment", {"segmentation": {"image": {"kind": "pgm", "path": "missing.pgm"}}},
     "segmentation.image.path"),
    # a 2x2 P2 header with two samples: read at load, not in the run
    ("segment", {"segmentation": {"image": {"kind": "pgm", "path": "bad.pgm"}}},
     "segmentation.image.path"),
    # q1 and q2 read a model's states as points on a line
    ("q1", {"model": POTTS_2X2}, "model.kind"),
    ("q2", {"model": POTTS_2X2}, "model.kind"),
    # a P2 sample that is not an integer
    ("segment", {"segmentation": {"image": {"kind": "pgm", "path": "frac.pgm"}}},
     "segmentation.image.path"),
    # every step a jump, and the default boundaries make two rings
    ("q3", {"q3": {"p_jump": 1}}, "q3.p_jump"),
    # a one-state spectrum has no second eigenvalue, so no gap
    ("q4", {"q4": {"coarse_cells": 1}}, "q4.coarse_cells"),
    ("spectral", {"model": {"kind": "energy_table", "energies": [0.0]}}, "model"),
    ("q4", {"model": {"kind": "energy_table", "energies": [0.0]}}, "model"),
    # no ladder steps: nothing to measure, and the summary's means are NaN
    ("q2", {"replicates": 1, "ladder": {"macro_steps": 0, "steps_per_level": 0}},
     "ladder.macro_steps"),
    ("q1", {"replicates": 1, "ladder": {"macro_steps": 0}}, "ladder.macro_steps"),
    ("q1", {"replicates": 1, "ladder": {"schedule": "serial", "steps_per_level": 0}},
     "ladder.steps_per_level"),
]
NEEDS_IDS = [n[0] for n in NEEDS[:7]] + [
    "segment-malformed", "q1-potts_grid", "q2-potts_grid", "segment-non-integer",
    "q3-p_jump-1", "q4-one-coarse-cell", "spectral-one-state", "q4-one-state",
    "q2-no-steps", "q1-no-parallel-steps", "q1-no-serial-steps"]


@pytest.mark.parametrize("experiment,raw,key_path", NEEDS, ids=NEEDS_IDS)
def test_experiment_needs_are_checked_at_load(tmp_path, capsys, monkeypatch,
                                              experiment, raw, key_path):
    """What an experiment needs of the ladder, model or image is refused
    when the config is loaded, so no output directory is made."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.pgm").write_text("P2\n2 2\n255\n0 255\n")
    (tmp_path / "frac.pgm").write_text("P2\n2 2\n255\n0 3.5 255 9\n")
    cfg = write_config(tmp_path, {"experiment": experiment, **raw})
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"eelab: config error: {key_path}: ")
    assert not out.exists()


EXTREME = [
    # 1 / (2 sigma^2) divides by zero, or sigma ** 2 overflows
    ("segment", {"segmentation": {"sigma": 1e-308}}, "segmentation.sigma"),
    ("segment", {"segmentation": {"sigma": 1e308}}, "segmentation.sigma"),
    ("segment", {"segmentation": {"sigma": 1e-300, "region_mode": "poly_fit"}},
     "segmentation.sigma"),
    ("segment", {"segmentation": {"sigma": 1e308, "region_mode": "poly_fit"}},
     "segmentation.sigma"),
    # the energy table overflows to inf, or the grid's span to NaN
    ("run", {"model": {"depth": 1e308}}, "model"),
    ("run", {"model": {"bounds": [-1e308, 1e308]}}, "model"),
    # the log posterior's Potts term beta * n_edges, or its likelihood term
    # n_pixels * d / (2 sigma^2), overflows
    ("segment", {"segmentation": {"beta": 1e308}}, "segmentation.beta"),
    ("swcut_vs_gibbs", {"segmentation": {"beta": 1e308}}, "segmentation.beta"),
    ("segment", {"segmentation": {"sigma": 1e-154}}, "segmentation.sigma"),
    ("swcut_vs_gibbs", {"segmentation": {"sigma": 1e-154}}, "segmentation.sigma"),
    ("segment", {"segmentation": {"sigma": 1e-154, "region_mode": "poly_fit"}},
     "segmentation.sigma"),
    # a label mean outside the intensity range [0, 1]: the first overflows
    # the likelihood term; the second does not, but one move's delta wipes
    # out the precision of the running log posterior
    ("segment", {"segmentation": {"means": [0.25, 1e200]}}, "segmentation.means"),
    ("segment", {"segmentation": {"means": [0.25, 1e150]}}, "segmentation.means"),
    # the level-0 law underflows to 0 away from the wells
    ("spectral", {"model": {"depth": 1000}}, "model"),
    ("q4", {"model": {"depth": 1000}}, "model"),
    # a state space above the enumeration cap, refused before it is built;
    # 2 ** (10^12) is never computed
    ("run", {"model": {"points": 10 ** 12}}, "model.points"),
    ("q3", {"model": {"points": 2 ** 63}}, "model.points"),
    ("spectral", {"model": {"points": 10 ** 12}}, "model.points"),
    ("q4", {"model": {"points": 2 ** 63}}, "model.points"),
    ("run", {"model": {"kind": "potts_grid", "width": 10 ** 12, "height": 1,
                       "labels": 2, "beta": 0.1}},
     "model.labels ** (model.width * model.height)"),
    # an image whose sampler would not fit in memory, refused before any
    # array is made
    ("segment", {"segmentation": {"image": {"width": 10 ** 12}}},
     "segmentation.image.width"),
    ("segment", {"segmentation": {"image": {"width": 2 ** 63}}},
     "segmentation.image.width"),
    ("swcut_vs_gibbs", {"segmentation": {"image": {"height": 2 ** 63}}},
     "segmentation.image.height"),
    # a segment run whose log-posterior trace would not fit in memory
    ("segment", {"segmentation": {"sweeps": 10 ** 12}}, "segmentation.sweeps"),
    ("segment", {"segmentation": {"sweeps": 2 ** 63}}, "segmentation.sweeps"),
    # more rows than a replicate experiment may keep until it writes them:
    # too many replicates, or too many rows in one
    ("q1", {"replicates": 2 ** 63}, "replicates"),
    ("q2", {"replicates": 10 ** 12}, "replicates"),
    ("q1", {"replicates": 10 ** 5, "tv_checkpoints": 100}, "replicates"),
    ("q1", {"tv_checkpoints": 2 ** 63}, "tv_checkpoints"),
    ("q2", {"replicates": 1, "tv_checkpoints": 10 ** 12}, "tv_checkpoints"),
    ("q3", {"replicates": 2 ** 63}, "replicates"),
    ("swcut_vs_gibbs", {"replicates": 2 ** 63}, "replicates"),
    # a ladder run whose trace would not fit in memory, on the leaf its
    # schedule reads; q2 runs both schedules at macro_steps
    ("run", {"ladder": {"macro_steps": 2 ** 63}}, "ladder.macro_steps"),
    ("run", {"ladder": {"macro_steps": 10 ** 12}}, "ladder.macro_steps"),
    ("run", {"ladder": {"schedule": "serial", "steps_per_level": 2 ** 63}},
     "ladder.steps_per_level"),
    ("q1", {"ladder": {"schedule": "serial", "steps_per_level": 10 ** 12}},
     "ladder.steps_per_level"),
    ("q1", {"ladder": {"macro_steps": 10 ** 12}}, "ladder.macro_steps"),
    ("q2", {"ladder": {"macro_steps": 2 ** 63, "steps_per_level": 2 ** 63}},
     "ladder.macro_steps"),
    ("q2", {"ladder": {"schedule": "serial", "macro_steps": 10 ** 12,
                       "steps_per_level": 10 ** 12}}, "ladder.macro_steps"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment,raw,key_path", EXTREME,
                         ids=["sigma-tiny", "sigma-huge", "poly-sigma-tiny",
                              "poly-sigma-huge", "depth-huge", "bounds-huge",
                              "beta-huge", "mixing-beta-huge", "sigma-sum-overflows",
                              "mixing-sigma-sum-overflows", "poly-sigma-sum-overflows",
                              "mean-huge", "mean-large", "spectral-law-underflows",
                              "q4-law-underflows", "points-1e12", "q3-points-2^63",
                              "spectral-points-1e12", "q4-points-2^63",
                              "potts-width-1e12", "image-width-1e12",
                              "image-width-2^63", "mixing-image-height-2^63",
                              "sweeps-1e12", "sweeps-2^63", "q1-replicates-2^63",
                              "q2-replicates-1e12", "q1-replicates-by-checkpoints",
                              "q1-checkpoints-2^63", "q2-checkpoints-1e12",
                              "q3-replicates-2^63", "mixing-replicates-2^63",
                              "run-macro-steps-2^63", "run-macro-steps-1e12",
                              "run-serial-steps-2^63", "q1-serial-steps-1e12",
                              "q1-macro-steps-1e12", "q2-steps-2^63",
                              "q2-serial-steps-1e12"])
def test_extreme_values_are_refused_at_load(tmp_path, capsys, experiment, raw,
                                            key_path):
    """A finite config value whose likelihood scale or energy table is not
    finite is refused at load with its key path, with no numpy warning on
    the way and no output directory made."""
    cfg = write_config(tmp_path, {"experiment": experiment, **raw})
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"eelab: config error: {key_path}: ")
    assert not out.exists()


@pytest.mark.parametrize("experiment,raw,key_path", [
    ("q1", {"tv_checkpoints": 20}, "replicates"),
    ("q2", {"tv_checkpoints": 1}, "replicates"),
    ("q3", {"q3": {"ledger_sizes": [1, 2, 3]}}, "replicates"),
    ("swcut_vs_gibbs", {}, "replicates"),
    ("q1", {"replicates": 1}, "tv_checkpoints"),
    ("segment", {"segmentation": {"image": {"width": 32, "height": 32}}},
     "segmentation.sweeps"),
    ("run", {"ladder": {}}, "ladder.macro_steps"),
    ("q1", {"ladder": {"schedule": "serial", "n_levels": 3}}, "ladder.steps_per_level"),
    ("q2", {"ladder": {"ring_boundaries": [0.5, 1.0, 2.0]}}, "ladder.macro_steps")])
def test_row_and_step_bounds_are_exact(experiment, raw, key_path):
    """A config at its row or step bound loads, and one more replicate,
    checkpoint, sweep or ladder step is refused: the bound is the memory
    the run keeps, not a round number. A ladder step keeps 26 B per level
    and 4 B per jump ring (the default rings are the levels' truncations)."""
    rows = {"q1": 42, "q2": 4, "q3": 3, "swcut_vs_gibbs": 2}.get(experiment)
    ladder = raw.get("ladder", {})
    levels = ladder.get("n_levels", 2)
    rings = len(ladder.get("ring_boundaries", [None] * (levels - 1))) + 1
    steps = config_module.MAX_LADDER_BYTES // (26 * levels + 4 * rings)
    at = {"replicates": config_module.MAX_KEPT_ROWS // (rows or 1),
          "tv_checkpoints": config_module.MAX_KEPT_ROWS // 2 - 1,
          "segmentation.sweeps": config_module.MAX_SEGMENT_STEPS // 1024,
          "ladder.macro_steps": steps, "ladder.steps_per_level": steps}[key_path]

    def with_value(v):
        if key_path == "segmentation.sweeps":
            return {**raw, "segmentation": {**raw["segmentation"], "sweeps": v}}
        if key_path.startswith("ladder."):  # q2 needs both step counts equal
            keys = (("macro_steps", "steps_per_level") if experiment == "q2"
                    else (key_path[len("ladder."):],))
            return {**raw, "ladder": {**ladder, **dict.fromkeys(keys, v)}}
        return {**raw, key_path: v}

    validate_config(with_value(at), experiment)
    with pytest.raises(ConfigError, match=f"^{key_path}: "):
        validate_config(with_value(at + 1), experiment)


def test_unreached_target_writes_strict_json(tmp_path):
    """With equal region means no sampler reaches the target agreement:
    swcut_vs_gibbs writes null medians and a null speedup, not the
    non-standard Infinity and NaN tokens."""
    cfg = write_config(tmp_path, {
        "experiment": "swcut_vs_gibbs", "replicates": 2,
        "segmentation": {"image": {"width": 8, "height": 8, "means": [0.5, 0.5]}},
        "mixing": {"max_sweeps": 2}})
    out = tmp_path / "out"
    assert main(["swcut_vs_gibbs", "--config", str(cfg), "--out", str(out)]) == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    written = {path.name: json.loads(path.read_text(), parse_constant=refuse)
               for path in out.glob("*.json")}
    summary = written["summary.json"]
    assert summary["median_sweeps_swcut"] is None
    assert summary["median_sweeps_gibbs"] is None
    assert summary["speedup_ratio"] is None


def test_write_json_refuses_a_non_finite_value(tmp_path):
    """A NaN or an infinity is a NumericError naming the file, raised
    before the file is made."""
    path = tmp_path / "summary.json"
    for value in (math.nan, math.inf):
        with pytest.raises(NumericError, match="summary.json"):
            experiments.write_json(path, {"x": [1.0, value]})
        assert not path.exists()


@pytest.mark.parametrize("ladder", [{"ring_boundaries": []},
                                    {"ring_boundaries": [100.0]},
                                    {"jump_mode": "unrestricted"}],
                         ids=["no-boundaries", "one-boundary-above-every-energy",
                              "unrestricted-jumps"])
def test_q3_with_every_step_a_jump_runs_on_one_ring(tmp_path, ladder):
    """q3.p_jump 1 is refused only when the states fall in two or more
    rings: with one ring the jump chain has one closed class. Unrestricted
    jumps have one ring whatever the boundaries."""
    cfg = write_config(tmp_path, {"experiment": "q3", "replicates": 2,
                                  "model": {"points": 21}, "ladder": ladder,
                                  "q3": {"p_jump": 1, "ledger_sizes": [0, 50]}})
    out = tmp_path / "out"
    assert main(["q3", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "DONE").exists()


def test_q3_with_unrestricted_jumps_is_q3_on_one_ring(tmp_path):
    """q3 reads ladder.jump_mode: unrestricted jumps write the bytes of
    the one-ring layout, and restricted jumps (the default boundaries
    make two rings here) write others."""
    written = {}
    for name, ladder in (("unrestricted", {"jump_mode": "unrestricted"}),
                         ("one-ring", {"ring_boundaries": []}),
                         ("restricted", {})):
        cfg = write_config(tmp_path, {"experiment": "q3", "replicates": 2,
                                      "model": {"points": 21}, "ladder": ladder,
                                      "q3": {"ledger_sizes": [0, 50]}},
                           name=f"{name}.json")
        out = tmp_path / name
        assert main(["q3", "--config", str(cfg), "--out", str(out)]) == 0
        written[name] = [(out / f).read_bytes()
                         for f in ("ledger_bias.csv", "summary.json")]
    assert written["unrestricted"] == written["one-ring"]
    assert written["restricted"] != written["one-ring"]


@pytest.mark.parametrize("experiment", ["spectral", "q4"])
@pytest.mark.parametrize("beta", [0.0, 0.3, 0.7])
def test_spectral_reports_run_on_a_3x3_potts_grid(tmp_path, experiment, beta):
    """A 3x3 two-label grid has nine local slots of 1/9 each, which sum to
    1.0000000000000002: the local matrix's diagonal must not go negative
    where every move is accepted."""
    model = {"kind": "potts_grid", "width": 3, "height": 3, "labels": 2,
             "beta": beta}
    cfg = write_config(tmp_path, {"experiment": experiment, "model": model})
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
    config = load_config(cfg)
    K = kernels.RandomWalkKernel(config.build_model(),
                                 config.ladder.levels()[0]).exact_matrix()
    assert (K >= 0.0).all()
    assert (K.sum(axis=1) > 1.0).any()  # the rounding the diagonal absorbs


def test_segment_reads_its_pgm_image_once(tmp_path, monkeypatch):
    """The image validate_config reads is the one the run segments: one
    eelab segment run on a pgm parses the file once."""
    gray = np.where(np.arange(8)[None, :] < 4, 64.0, 192.0) * np.ones((6, 1))
    write_pgm(tmp_path / "in.pgm", gray)
    read_pgm, calls = netpbm.read_pgm, []

    def spy(path):
        calls.append(path)
        return read_pgm(path)

    for module in (netpbm, config_module, experiments):
        if hasattr(module, "read_pgm"):
            monkeypatch.setattr(module, "read_pgm", spy)
    cfg = write_config(tmp_path, {"experiment": "segment", "segmentation": {
        "image": {"kind": "pgm", "path": str(tmp_path / "in.pgm")}, "sweeps": 1}})
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [str(tmp_path / "in.pgm")]


@pytest.mark.parametrize("raw,extra,key_path", MALFORMED,
                         ids=[_case_id(*getattr(m, "values", m)) for m in MALFORMED])
def test_malformed_input_is_a_keyed_config_error(tmp_path, capsys, raw, extra,
                                                 key_path):
    cfg = write_config(tmp_path, {"experiment": "run", **raw})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 *extra])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"eelab: config error: {key_path}: ")
    assert not (tmp_path / "out").exists()


class TestCliExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "run",
            "ladder": {"macro_steps": 200, "burn_in": 10},
            "model": {"kind": "energy_table", "energies": [0.0, 1.0]},
        })
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "DONE").exists()

    def test_config_error_is_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "run", "bogus": True})
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_refusal_to_overwrite_is_one_and_force_clears(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "run",
            "ladder": {"macro_steps": 100},
            "model": {"kind": "energy_table", "energies": [0.0, 1.0]},
        })
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--out", out]) == 0
        assert main(["run", "--config", str(cfg), "--out", out]) == 1
        assert main(["run", "--config", str(cfg), "--out", out, "--force"]) == 0

    def test_force_removes_the_earlier_runs_artifacts(self, tmp_path, capsys):
        """spectral forced over q3 leaves none of q3's files (q3 writes a
        summary.json, spectral does not)."""
        out = str(tmp_path / "out")
        q3 = write_config(tmp_path, {"replicates": 1, "model": {"points": 21}}, "q3.json")
        spectral = write_config(tmp_path, {"model": {"points": 21}}, "spectral.json")
        assert main(["q3", "--config", str(q3), "--out", out]) == 0
        assert main(["spectral", "--config", str(spectral), "--out", out,
                     "--force"]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "DONE", "metadata.json", "spectral.csv", "spectral.json"]

    @pytest.mark.parametrize("name,kind", [("notes.txt", "file"), ("trace.csv", "dir"),
                                           ("summary.json", "symlink")])
    def test_force_refuses_a_foreign_entry_and_removes_nothing(self, tmp_path, capsys,
                                                                name, kind):
        """A name no experiment writes, or an artifact's name on anything
        but a regular file."""
        cfg = write_config(tmp_path, {"model": {"points": 21}})
        out = tmp_path / "out"
        assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
        if kind == "dir":
            (out / name).mkdir()
        elif kind == "symlink":
            (out / name).symlink_to(cfg)
        else:
            (out / name).write_text("keep\n")
        before = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["spectral", "--config", str(cfg), "--out", str(out),
                     "--force"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("eelab: config error: ") and name in err
        assert {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()} == before

    def test_runtime_error_is_two(self, tmp_path, capsys):
        """An I/O error while running: the output directory cannot be
        made under a regular file."""
        cfg = write_config(tmp_path, {
            "experiment": "run",
            "ladder": {"macro_steps": 100},
            "model": {"kind": "energy_table", "energies": [0.0, 1.0]},
        })
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["run", "--config", str(cfg), "--out", str(blocker / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("eelab: error: ")

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 74.5 GiB for an array"), MemoryError()])
    def test_out_of_memory_is_two(self, tmp_path, capsys, monkeypatch, exc):
        def exhausted(config, out):
            raise exc

        monkeypatch.setitem(experiments._EXPERIMENTS, "segment", exhausted)
        assert main(["segment", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"eelab: error: {str(exc) or 'MemoryError'}\n"

    def test_over_cap_model_is_a_keyed_config_error(self, tmp_path, capsys):
        """2^25 labelings are refused when the config is loaded, keyed by
        the leaves that count them, so no output directory is left behind
        without its DONE sentinel."""
        cfg = write_config(tmp_path, {
            "experiment": "run",
            "model": {"kind": "potts_grid", "width": 5, "height": 5,
                      "labels": 2, "beta": 0.1},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("eelab: config error: "
                              "model.labels ** (model.width * model.height): ")
        assert "enumeration cap 1048576" in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["spectral", "q4"])
    def test_over_spectral_cap_is_a_keyed_config_error(
            self, tmp_path, capsys, monkeypatch, experiment):
        """A model above the dense eigensolver's cap is refused when the
        config is loaded, keyed by model.points: no kernel matrix is built
        and no output directory is made."""
        def no_matrix(self):
            raise AssertionError("exact_matrix called")

        for cls in (kernels.RandomWalkKernel, kernels.IndependenceKernel,
                    kernels.MixtureKernel):
            monkeypatch.setattr(cls, "exact_matrix", no_matrix)
        cfg = write_config(tmp_path, {"experiment": experiment,
                                      "model": {"points": SPECTRAL_CAP + 1}})
        out = tmp_path / "out"
        assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"eelab: config error: model.points: the dense eigensolver is capped "
            f"at {SPECTRAL_CAP} states, got {SPECTRAL_CAP + 1}\n")
        assert not out.exists()

    def test_a_256x256_image_still_loads(self, tmp_path):
        """A 256x256 image is well under the pixel bound: it loads, builds
        its sampler and writes a zero-sweep run."""
        cfg = write_config(tmp_path, {"experiment": "segment", "segmentation": {
            "image": {"width": 256, "height": 256}, "sweeps": 0}})
        out = tmp_path / "out"
        assert main(["segment", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "DONE").exists()

    @pytest.mark.parametrize("extra", [[], ["--seed", "3"]])
    def test_one_run_builds_the_model_once(self, tmp_path, monkeypatch, extra):
        """Validation builds the model and the experiment uses that one,
        so its energy table is filled once per run."""
        import eelab.config

        built = []
        real = eelab.config.builtin_model

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(eelab.config, "builtin_model", counting)
        cfg = write_config(tmp_path, {"experiment": "run",
                                      "ladder": {"macro_steps": 50}})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     *extra]) == 0
        assert len(built) == 1

    def test_seed_override_writes_the_metadata_of_that_seed(self, tmp_path):
        raw = {"experiment": "run", "ladder": {"macro_steps": 50},
               "model": {"kind": "energy_table", "energies": [0.0, 1.0]}}
        given = write_config(tmp_path, {**raw, "seed": 2}, "given.json")
        assert main(["run", "--config", str(given), "--out", str(tmp_path / "a")]) == 0
        other = write_config(tmp_path, {**raw, "seed": 1}, "other.json")
        assert main(["run", "--config", str(other), "--seed", "2",
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("metadata.json", "trace.csv", "summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "run", "seed": 1,
            "ladder": {"macro_steps": 50},
            "model": {"kind": "energy_table", "energies": [0.0, 1.0]},
        })
        assert main(["run", "--config", str(cfg), "--seed", "2",
                     "--out", str(tmp_path / "out")]) == 0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["seed"] == 2


class TestArtifacts:
    @pytest.mark.parametrize("raw", [
        {"experiment": "run", "ladder": {"macro_steps": 50}},
        {"experiment": "q1", "ladder": {"macro_steps": 50}},
        {"experiment": "q2", "ladder": {"macro_steps": 50, "steps_per_level": 50}},
        {"experiment": "q3", "q3": {"ledger_sizes": [10]}},
        {"experiment": "spectral"},
        {"experiment": "q4"},
        {"experiment": "segment"},
        {"experiment": "swcut_vs_gibbs", "mixing": {"max_sweeps": 1}},
    ], ids=lambda raw: raw["experiment"])
    def test_every_file_written_is_a_known_artifact(self, tmp_path, raw):
        """--force may remove only names in ARTIFACTS, so every file an
        experiment writes must be one."""
        from eelab.experiments import ARTIFACTS, run_experiment

        cfg = validate_config({"replicates": 1, "model": {"points": 21},
                               "segmentation": {"image": {"width": 6, "height": 6}},
                               **raw})
        out = run_experiment(cfg, out_dir=tmp_path / "out")
        written = {p.name for p in out.iterdir()}
        assert {"DONE", "metadata.json"} < written <= ARTIFACTS

    def test_empty_trace_writes_header_only_csv_and_sentinel(self, tmp_path):
        cfg = validate_config({
            "experiment": "run",
            "ladder": {"macro_steps": 0},
            "model": {"kind": "energy_table", "energies": [0.0, 1.0]},
        })
        from eelab.experiments import run_experiment

        out = run_experiment(cfg, out_dir=tmp_path / "out")
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines == ["step,level,state_id,energy,ring,move_type,accepted"]
        assert (out / "DONE").exists()

    def test_trace_rows_match_schema_width(self, tmp_path):
        cfg = validate_config({
            "experiment": "run",
            "ladder": {"macro_steps": 60, "burn_in": 5},
            "model": {"kind": "energy_table", "energies": [0.0, 0.5, 1.0]},
        })
        from eelab.experiments import run_experiment

        out = run_experiment(cfg, out_dir=tmp_path / "out")
        lines = (out / "trace.csv").read_text().splitlines()
        width = len(lines[0].split(","))
        assert all(len(line.split(",")) == width for line in lines)
        assert len(lines) == 1 + 60 * 2  # header + M rows per level

    def test_model_is_rebuilt_after_its_section_changes(self):
        cfg = validate_config({"experiment": "run"})
        model = cfg.build_model()
        assert cfg.build_model() is model
        cfg.model["depth"] = 5.0
        deeper = cfg.build_model()
        assert deeper is not model
        assert np.array_equal(deeper.energies(), 5.0 / 4.0 * model.energies())

    def test_csv_writes_numpy_scalars_as_plain_decimals(self, tmp_path):
        import numpy as np

        from eelab.experiments import write_csv

        write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"],
                  [(np.float64(0.1), np.int64(3), 1e-300 / 3, "x")])
        assert (tmp_path / "t.csv").read_text() == (
            "a,b,c,d\n0.1,3," + repr(1e-300 / 3) + ",x\n")

    def test_csv_rejects_a_row_of_the_wrong_width(self, tmp_path):
        from eelab.experiments import write_csv

        with pytest.raises(ConfigError, match="row width 1"):
            write_csv(tmp_path / "t.csv", ["a", "b"], iter([(1, 2), (3,)]))

    def test_rerun_is_byte_identical(self, tmp_path):
        raw = {
            "experiment": "q3",
            "seed": 12,
            "replicates": 3,
            "q3": {"ledger_sizes": [50, 200]},
            "model": {"kind": "energy_table",
                      "energies": [0.0, 2.0, 0.5, 3.0, 1.0]},
            "ladder": {"truncation_min": 0.5},
        }
        from eelab.experiments import run_experiment

        out_a = run_experiment(validate_config(raw), out_dir=tmp_path / "a")
        out_b = run_experiment(validate_config(raw), out_dir=tmp_path / "b")
        for name in ("ledger_bias.csv", "summary.json", "metadata.json", "DONE"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_empty_ledger_records_all_fallback_jumps(self, tmp_path):
        cfg = validate_config({
            "experiment": "q1",
            "seed": 3,
            "replicates": 2,
            "model": {"kind": "energy_table",
                      "energies": [0.0, 2.0, 0.5, 3.0, 1.0]},
            "ladder": {"macro_steps": 300, "burn_in": 0, "p_jump": 1.0,
                       "max_records": 0},
        })
        from eelab.experiments import run_experiment

        out = run_experiment(cfg, out_dir=tmp_path / "out")
        summary = json.loads((out / "summary.json").read_text())
        for variant in ("restricted", "unrestricted"):
            assert summary[variant]["mean_fallback_share"] == 1.0
            # no jump ever finds a record, so there is no warm-up step
            assert summary[variant]["median_first_passage_after_warmup"] is None
        rows = (out / "first_passage.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["-1"] * 4

    def test_q4_on_two_state_instance_emits_canonical_eigenvalue(self, tmp_path):
        """Target (3/4, 1/4) with the truncation above both energies makes
        the flattened proposal uniform; lambda2 must come out 1/3 and the
        alternate bound must be the matching one."""
        cfg = validate_config({
            "experiment": "q4",
            "model": {"kind": "table", "weights": [3.0, 1.0]},
            "ladder": {"temperatures": [1.0, 4.0], "truncations": [1.2]},
            "q4": {"coarse_cells": 2},
        })
        from eelab.experiments import run_experiment

        out = run_experiment(cfg, out_dir=tmp_path / "out")
        reports = json.loads((out / "spectral_reports.json").read_text())
        assert abs(reports["mis"]["lambda2"] - 1.0 / 3.0) <= 1e-9
        assert reports["mis"]["matched_bound"] == "alternate"

    def test_metadata_carries_version_and_config_echo(self, tmp_path):
        cfg = validate_config({"experiment": "spectral", "seed": 4})
        from eelab.experiments import run_experiment
        from eelab import __version__

        out = run_experiment(cfg, out_dir=tmp_path / "out")
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["version"] == __version__
        assert meta["config"]["experiment"] == "spectral"
        assert meta["seed"] == 4


@pytest.mark.parametrize("depth", [200, 2000])
def test_q3_runs_on_deep_wells(tmp_path, depth):
    """A deep double well makes exp(log r) of some jump acceptance
    overflow; q3 must still finish with an exact idealized kernel."""
    cfg = write_config(tmp_path, {"experiment": "q3", "model": {"depth": depth}})
    out = tmp_path / "out"
    assert main(["q3", "--config", str(cfg), "--out", str(out)]) == 0
    ideal = json.loads((out / "summary.json").read_text())["idealized_kernel"]
    assert ideal["stationary_gap"] <= 1e-12
    assert ideal["reversibility_gap"] <= 1e-12


def reference_trace_csv(path, model, ts):
    """trace.csv as write_csv wrote it from per-row tuples: each value
    through str via "%s", rows joined by LF."""
    h = model.energies().tolist()
    ring_of = [bisect_right(ts.boundaries, e) for e in h]
    rows = chain.from_iterable(
        zip(range(len(tr)), repeat(tr.level), tr.states.tolist(),
            [h[x] for x in tr.states.tolist()],
            [ring_of[x] for x in tr.states.tolist()],
            map(MOVE_NAMES.__getitem__, tr.move_types.tolist()),
            tr.accepted.tolist())
        for tr in ts.levels)
    line = ",".join(["%s"] * 7) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,level,state_id,energy,ring,move_type,accepted\n")
        for row in rows:
            fh.write(line % tuple(row))


# energies whose shortest round-trip forms differ in shape
ODD_ENERGIES = [0.1, 1e-7, 2.5, 1e16, -0.0, 3.0, 1.0 / 3.0, 0.7, 2.0, 123456.789]


@pytest.mark.parametrize("max_records", [None, 0, 7])
@pytest.mark.parametrize("jump_mode", ["restricted", "unrestricted"])
@pytest.mark.parametrize("schedule", ["parallel", "serial"])
def test_trace_writer_matches_the_row_by_row_path(tmp_path, monkeypatch, schedule,
                                                  jump_mode, max_records):
    """Three levels, with jump fallbacks before the upper ledgers fill;
    chunks of one row, chunk boundaries inside each level's rows, and
    chunks longer than a level."""
    model = builtin_model("energy_table", energies=ODD_ENERGIES)
    cfg = LadderConfig(levels=geometric_ladder(3, ratio=2.0, h_min=0.5, dh=1.0),
                       burn_in=40, p_jump=0.4, jump_mode=jump_mode,
                       schedule=schedule, macro_steps=3000, steps_per_level=3000,
                       max_records=max_records)
    ts = run_ladder(model, cfg, seed=11)
    fallbacks = sum(int((tr.move_types == MOVE_JUMP_FALLBACK).sum()) for tr in ts.levels)
    # an empty upper pool makes a fallback: always with max_records 0, and
    # on the parallel schedule before step burn_in
    assert fallbacks or (schedule == "serial" and max_records != 0)
    reference_trace_csv(tmp_path / "want.csv", model, ts)
    want = (tmp_path / "want.csv").read_bytes()
    for chunk_rows in (700, 1, 5000):
        monkeypatch.setattr(experiments, "TRACE_CHUNK_ROWS", chunk_rows)
        write_trace_csv(tmp_path / "got.csv", model, ts)
        assert (tmp_path / "got.csv").read_bytes() == want, chunk_rows


@pytest.mark.parametrize("burn_in,n_steps,checkpoints", [
    (0, 997, 10),
    (300, 997, 7),
    (997, 997, 5),
    (2000, 997, 5),
    (0, 6, 20),
    (3, 6, 20),
])
def test_tv_curve_equals_the_per_checkpoint_counts(burn_in, n_steps, checkpoints):
    """The running count gives every checkpoint's TV to the last bit: burn_in
    0, inside the trace and past its end, and more checkpoints than steps."""
    model = builtin_model("energy_table", energies=ODD_ENERGIES)
    levels = geometric_ladder(2, ratio=2.0, h_min=0.5, dh=1.0)
    cfg = LadderConfig(levels=levels, burn_in=burn_in, p_jump=0.3,
                       macro_steps=n_steps)
    ts = run_ladder(model, cfg, seed=3)
    pi = enumerate_distribution(model, levels[0])
    want = []
    for k in range(1, checkpoints + 1):
        upto = max(1, (n_steps * k) // checkpoints)
        counts = ts.empirical_counts(0, model.size, upto)
        total = counts.sum()
        want.append((upto, 1.0 if total == 0 else
                     tv_distance(counts / total, pi.probs)))
    got = experiments._tv_curve(ts, 0, model.size, pi, checkpoints)
    assert got == want
    assert [type(tv) for _, tv in got] == [type(tv) for _, tv in want]
