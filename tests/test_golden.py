"""Golden artifacts: pinned SHA-256 digests of small experiments.

Criterion 9 compares two runs of the same code, so it cannot see a
refactor that changes how much randomness a run consumes or in what
order. The ladder digests were recorded before the ladder loop was
merged into one schedule-driven loop and pin every artifact of small
``run`` configs (both schedules; restricted and unrestricted jumps with
a ``max_records`` cap) and of a small ``q3``. The ``segment`` digests
were recorded with the scalar union-find cluster formation and pin
SW-cut runs on a 24x24 image (fixed means and a first-order polynomial
fit, each with both cluster picks) from a random initial labeling.

A deliberate change in RNG consumption or output format changes the
digests: update them in the same change and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from eelab.config import validate_config
from eelab.experiments import run_experiment

SMALL = {"points": 21}


def _segment(seed, pick, **region):
    return {"experiment": "segment", "seed": seed, "segmentation": {
        "image": {"width": 24, "height": 24, "layout": "disk", "noise_sd": 0.08},
        "init": "random", "sweeps": 2, "cluster_pick": pick, **region}}


CONFIGS = {
    "run_parallel": {
        "experiment": "run", "seed": 11, "model": SMALL,
        "ladder": {"macro_steps": 3000, "burn_in": 200, "p_jump": 0.2}},
    "run_serial": {
        "experiment": "run", "seed": 12, "model": SMALL,
        "ladder": {"schedule": "serial", "n_levels": 3, "steps_per_level": 2000,
                   "burn_in": 200, "p_jump": 0.2}},
    "run_parallel_unrestricted": {
        "experiment": "run", "seed": 13, "model": SMALL,
        "ladder": {"jump_mode": "unrestricted", "max_records": 300,
                   "macro_steps": 3000, "burn_in": 200, "p_jump": 0.2}},
    "run_serial_unrestricted": {
        "experiment": "run", "seed": 14, "model": SMALL,
        "ladder": {"schedule": "serial", "jump_mode": "unrestricted",
                   "max_records": 300, "steps_per_level": 2000,
                   "burn_in": 200, "p_jump": 0.2}},
    "q3": {
        "experiment": "q3", "seed": 15, "replicates": 2, "model": SMALL,
        "q3": {"ledger_sizes": [50, 500]}},
    "segment_fixed_uniform": _segment(21, "uniform"),
    "segment_fixed_pixel": _segment(22, "pixel"),
    "segment_poly_uniform": _segment(23, "uniform", region_mode="poly_fit", order=1),
    "segment_poly_pixel": _segment(24, "pixel", region_mode="poly_fit", order=1),
}

DONE = "d117fa006ba9208500b2930ce69cbde436c647afa917cb7396a9bc9111a46dd2"

DIGESTS = {
    "run_parallel": {
        "DONE": DONE,
        "metadata.json": "3844ddc145c81d3872b95383322f7f28e27dd2cba66f1b81e1ca27ca22a5f001",
        "summary.json": "fa73b523d8f97444c3e86566e3fcfc3d6227f6af1890996a513222a727e6a547",
        "trace.csv": "0eeb09472fb5fa55ea701707986ff5e2477707594b3be289c2c5eb1f5a40e7fb",
    },
    "run_serial": {
        "DONE": DONE,
        "metadata.json": "81764fac71f528464cec446ba6298ae612d592460d2876a02791d273cd4258f4",
        "summary.json": "494a5dde6544f363016c767399fb299146f8557d8f250513f3e40615eb7b2d46",
        "trace.csv": "8d0bc04533585bf84bc05846d9e21c72c7acdb886cabd558a82c80ea955891c4",
    },
    "run_parallel_unrestricted": {
        "DONE": DONE,
        "metadata.json": "c557d6c462d6d1b4fac1a7328ed586edd111fe7abc3efa49f95cc2304ec404a8",
        "summary.json": "a8bfe73eb62d6ba626ac66adda2adc612727019e025da9895a39771656bf5947",
        "trace.csv": "b6e31eb909fd35cc2264a18d8aef4fb0c502a9308fc4b6e6c41bf4d8f9112473",
    },
    "run_serial_unrestricted": {
        "DONE": DONE,
        "metadata.json": "0a8f7b3da6d2917a1dbb6cb3b15d1731c211c560364166f3dadbb0bc9fc7d0b6",
        "summary.json": "c6968768aee9ab933b91931813af890c579dd204c8afd98863b437c44e50fb5c",
        "trace.csv": "b57859a2f7fca297cd874540f165b001b804ea8bcb0cd11bdccb60b83975a28d",
    },
    "q3": {
        "DONE": DONE,
        "ledger_bias.csv": "9bac95ab3aa0a419aeeaa3df2950d3440db64c06806e806b922951ef37d63205",
        "metadata.json": "f32911eaaad3315e63a241ab285709da8bfe3d275745a088fcad7730eb24c339",
        "summary.json": "76099e5c5b6e5414328a2d0c454d62fcf08094b2df9ebdba9a23cdc8eb14ac71",
    },
    "segment_fixed_pixel": {
        "DONE": DONE,
        "labels.pgm": "b03ae588e05ec7b183892efaee401c13968a3bfaa16e2e2963df41dd2866ebd3",
        "metadata.json": "81ae0f85e1e43d6e7d4a2c09825ef72145bc4c6a845cb515ddb4cc1a084b10d0",
        "overlay.ppm": "ff19cf1ffe0bea29f002e3ffd77462513a745307923321d71c9148531ca8c727",
        "summary.json": "e3bb6597a07e74f5b1a24bc241dfe05842c928b95042d18ad92c20d71c28a919",
        "trace.csv": "9b0483fe430ccc1a1770a2fbd9003f53d8a2a3ff2c4ef293b0bbaadab565b07b",
    },
    "segment_fixed_uniform": {
        "DONE": DONE,
        "labels.pgm": "c2247e05266fc83821e44b9921546d0109945d955fff72ff0be0b9c877cc988d",
        "metadata.json": "1ed0e732313dd89cc890cd751302b3b4f1e6957b611c1513b0ec9e3d9750ec37",
        "overlay.ppm": "6c734f2d81f3f425a8c6532bbf3dcf6aa84139f8a9b5c29ce7295ffcba4fed2a",
        "summary.json": "70d831c968a9a6b97d69db43a2ca3b412f6e7d07027c986587a7ebce8304dcbd",
        "trace.csv": "32431c9847a099c94e8bd965d9fc89bcdb9873206daa9610f61dc24cee1001a9",
    },
    "segment_poly_pixel": {
        "DONE": DONE,
        "labels.pgm": "8a28bb138d9791998e1c5437180ff4e18407ac71963cc6afda0a901287d5b0c7",
        "metadata.json": "5910cd8f5dba72118b9d91618a7a4d4351e59d5018f042bf70e285d4d1c6f307",
        "overlay.ppm": "673fcc2deb2097a0258e3ffd9b34b50fc06fcd8011f1345d51519395241819c8",
        "summary.json": "b73cd73b12e18adbe3530c327a58e84a47c436bca7d186f8164dbc207525fd42",
        "trace.csv": "f05142928e25c144b27a95b84d75b889881255e83edf3af8d88cb33eb2a1f282",
    },
    "segment_poly_uniform": {
        "DONE": DONE,
        "labels.pgm": "c2247e05266fc83821e44b9921546d0109945d955fff72ff0be0b9c877cc988d",
        "metadata.json": "b883c956fffca58b70c6f1c9cf47714c9be9c27530d8561a0567c3394174bc95",
        "overlay.ppm": "6c734f2d81f3f425a8c6532bbf3dcf6aa84139f8a9b5c29ce7295ffcba4fed2a",
        "summary.json": "6801b585877483e16bc1eb7643f4aae0fa2cb4d53ddaf92ded8d9c623a99476b",
        "trace.csv": "7522306463c55e4cb8e056d8d9fa19d8092311eb7131196d0d87ef051f2f3272",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_pinned_digests(name, tmp_path):
    raw = json.loads(json.dumps(CONFIGS[name]))
    out = run_experiment(validate_config(raw), out_dir=tmp_path / name)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == DIGESTS[name]
