"""Golden artifacts: pinned SHA-256 digests of small ladder experiments.

Criterion 9 compares two runs of the same code, so it cannot see a
refactor that changes how much randomness a run consumes or in what
order. These digests were recorded before the ladder loop was merged
into one schedule-driven loop and pin every artifact of small ``run``
configs (both schedules; restricted and unrestricted jumps with a
``max_records`` cap) and of a small ``q3``.

A deliberate change in RNG consumption or output format changes the
digests: update them in the same change and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from eelab.config import validate_config
from eelab.experiments import run_experiment

SMALL = {"points": 21}

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
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_pinned_digests(name, tmp_path):
    raw = json.loads(json.dumps(CONFIGS[name]))
    out = run_experiment(validate_config(raw), out_dir=tmp_path / name)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == DIGESTS[name]
