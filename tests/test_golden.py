"""Golden artifacts: pinned SHA-256 digests of small experiments.

Criterion 9 compares two runs of the same code, so it cannot see a
refactor that changes how much randomness a run consumes or in what
order. The ladder digests were recorded before the ladder loop was
merged into one schedule-driven loop and pin every artifact of small
``run`` configs (both schedules; restricted and unrestricted jumps with
a ``max_records`` cap) and of a small ``q3``. The ``q1`` and ``q2``
digests were recorded while the parallel schedule still interleaved the
levels step by step, and pin both variants of each over two replicates. The ``segment`` digests
were recorded with the scalar union-find cluster formation and pin
SW-cut runs on a 24x24 image (fixed means and a first-order polynomial
fit, each with both cluster picks) from a random initial labeling. The
Gibbs digests were recorded while the random-scan Gibbs site update
still drew its label with numpy's exp and sum, and pin single-site Gibbs
``segment`` runs (three labels with fixed means; a first-order
polynomial fit) and a small ``swcut_vs_gibbs``.

Every config runs in a child interpreter with ``OPENBLAS_CORETYPE``
set to ``Prescott``, the SSE3 baseline that every x86-64 CPU runs, and
the rest of the environment inherited (so a ``NPY_DISABLE_CPU_FEATURES``
still applies). OpenBLAS's faster kernels round differently: under
Haswell or Sandybridge kernels the floats of the ``q3`` stationary laws
and of the poly_fit region fits move in their last bits, so digests
recorded on one CPU would fail on another. The ``q3`` and poly_fit
digests were re-recorded under the pinned kernel; the others did not
change. ``q3`` was re-recorded once more when the stationary laws moved
from an SVD least-squares solve to an LU solve (TV values moved by at
most 2e-15). The variable only picks a kernel in a DYNAMIC_ARCH OpenBLAS
build (numpy's wheels); other BLAS builds ignore it.

The ``trace.csv`` and ``summary.json`` digests of ``segment_poly_uniform``,
``segment_poly_pixel`` and ``segment_gibbs_poly`` were re-recorded when
the poly_fit region SSRs moved from a batched symmetric eigensolve to an
LDL' sweep of each region's Gram matrix. Those runs start from a random
labeling, so their log posteriors carry SSR roundoff: they moved by at
most 3.5e-12 relative to the eigensolve's, and the label maps (``labels.pgm``,
``overlay.ppm``) did not change.

A deliberate change in RNG consumption or output format changes the
digests: update them in the same change and say why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eelab

SRC = str(Path(eelab.__file__).resolve().parent.parent)
BLAS_CORETYPE = "Prescott"
CHILD = (
    "import json, sys\n"
    "from eelab.config import validate_config\n"
    "from eelab.experiments import run_experiment\n"
    "run_experiment(validate_config(json.loads(sys.argv[1])), out_dir=sys.argv[2])\n"
)

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
    "q1": {
        "experiment": "q1", "seed": 16, "replicates": 2, "model": SMALL,
        "ladder": {"macro_steps": 3000, "burn_in": 200, "p_jump": 0.2}},
    "q2": {
        "experiment": "q2", "seed": 17, "replicates": 2, "model": SMALL,
        "ladder": {"n_levels": 3, "macro_steps": 2000, "steps_per_level": 2000,
                   "burn_in": 200, "p_jump": 0.2}},
    "q3": {
        "experiment": "q3", "seed": 15, "replicates": 2, "model": SMALL,
        "q3": {"ledger_sizes": [50, 500]}},
    "segment_fixed_uniform": _segment(21, "uniform"),
    "segment_fixed_pixel": _segment(22, "pixel"),
    "segment_poly_uniform": _segment(23, "uniform", region_mode="poly_fit", order=1),
    "segment_poly_pixel": _segment(24, "pixel", region_mode="poly_fit", order=1),
    "segment_gibbs_fixed": _segment(25, "uniform", sampler="gibbs", n_labels=3,
                                    means=[0.2, 0.5, 0.8]),
    "segment_gibbs_poly": _segment(26, "uniform", sampler="gibbs",
                                   region_mode="poly_fit", order=1),
    "swcut_vs_gibbs": {
        "experiment": "swcut_vs_gibbs", "seed": 27, "replicates": 2,
        "segmentation": {"image": {"width": 12, "height": 12}}},
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
    "q1": {
        "DONE": DONE,
        "first_passage.csv": "360222fc02b51ae7ad8210af12d2d1f50b2a8de0a4e32fe8a5495eda7ff09220",
        "metadata.json": "1fbd35680745e8d33821c677e47133a1d88b0cfba83ae501e7fdae8af25ec337",
        "summary.json": "38e155023eda99b7fa7dc6a4ceaea198cc28d2df70b32f251df7603b930afeae",
        "tv_curves.csv": "1089a03fc110c9a85168cca556562824d25fda1df07aab35755549ce9a077810",
    },
    "q2": {
        "DONE": DONE,
        "first_passage.csv": "2c3dca959041f41375a0054a11394d039c554a42c4fe6d45693581dfeb587dff",
        "metadata.json": "4580cf7c77a64cfd39b464360150880b42d5954b566ca3c89f5c55acb88b8f90",
        "summary.json": "52de325393f5957d544ac8475d022357f74bddbc3962de43a34415a562fa4074",
        "tv_curves.csv": "8b007c55c9e2244c321e698286d53a1f3b59ef281b123e31dd7ca084934e5af3",
    },
    "q3": {
        "DONE": DONE,
        "ledger_bias.csv": "442b324f8741451c2b134e550fa1ec423472f9f836c71b34df33814156420bca",
        "metadata.json": "f32911eaaad3315e63a241ab285709da8bfe3d275745a088fcad7730eb24c339",
        "summary.json": "7186ff586c81903d5283db27a2c5259aae05e607b4e9da79d70e3395b7574f84",
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
    "segment_gibbs_fixed": {
        "DONE": DONE,
        "labels.pgm": "9be9b26b45b279d4e1bec0941e708fd26a11282c6b90369ebc205cc60dc9aacf",
        "metadata.json": "ed3f9f344a616b674a3337b4172b71a2ffd8a36886a37c531ebcdff25b8d2a82",
        "overlay.ppm": "516a160054f93d77051eea2fe7abaea83ec56cbe875de89faa794bc2eb9ef2a3",
        "summary.json": "d06b1df386052707e5e483ebd2a3b7807da56c48f76474159b3fee7ec1f75a2e",
        "trace.csv": "e11877ac82c981ade4746b7d8a94ac012c78a0650c2dd5e454baa335cc912b8f",
    },
    "segment_gibbs_poly": {
        "DONE": DONE,
        "labels.pgm": "70cfa1247cfabeb73e1c7f033f0cc691faab992524b2ca27958f614e811114d6",
        "metadata.json": "657890c4ab0695d17ea84edc4e5e8b7eedf212850605bfa5252bb9cda71fba0c",
        "overlay.ppm": "90a46870127c5e8a1e92073d3b426372b7dca461426a714a823f6fabf27fce1f",
        "summary.json": "de34304215fd61173fa841fc4aed00d7fa0dccb7b2634c81965bdfce1c1f6d6a",
        "trace.csv": "93d11ea7931664b8eafe7ce58232b429afbdd69f00d4df5bc760fab72d460b6f",
    },
    "segment_poly_pixel": {
        "DONE": DONE,
        "labels.pgm": "8a28bb138d9791998e1c5437180ff4e18407ac71963cc6afda0a901287d5b0c7",
        "metadata.json": "5910cd8f5dba72118b9d91618a7a4d4351e59d5018f042bf70e285d4d1c6f307",
        "overlay.ppm": "673fcc2deb2097a0258e3ffd9b34b50fc06fcd8011f1345d51519395241819c8",
        "summary.json": "e78e909418c9ff9efd1df8d5ce208d3f09e62d6838d45bae3ecdc5e584b9d49b",
        "trace.csv": "77abafaaff1cf765480a6fd7aaff5603fb4fe64c0d33f875509f305806a89a39",
    },
    "segment_poly_uniform": {
        "DONE": DONE,
        "labels.pgm": "c2247e05266fc83821e44b9921546d0109945d955fff72ff0be0b9c877cc988d",
        "metadata.json": "b883c956fffca58b70c6f1c9cf47714c9be9c27530d8561a0567c3394174bc95",
        "overlay.ppm": "6c734f2d81f3f425a8c6532bbf3dcf6aa84139f8a9b5c29ce7295ffcba4fed2a",
        "summary.json": "23d90d2e1cede10618e65b2f7cf61d3f5144f22610c0af10472c3e5a38c3aca2",
        "trace.csv": "c8dada28c0c2af6dc0c034382db28fa3bcb22495f60fa1abd7a5cbd935eab6f9",
    },
    "swcut_vs_gibbs": {
        "DONE": DONE,
        "metadata.json": "1de94b8b54f77463f59196a27d9f763992528149daea306d3dd5ce7c754a25b8",
        "mixing.csv": "f65b284af9c5bf90ca56302254bdb34667ee17b67a563fbb1956b55521a327c5",
        "summary.json": "57c156ec8941b6f6bec1627551ac1dd4614da473519fc37027f6834c624b428a",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_pinned_digests(name, tmp_path):
    out = tmp_path / name
    env = dict(os.environ, OPENBLAS_CORETYPE=BLAS_CORETYPE,
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(CONFIGS[name]),
                    str(out)], env=env, check=True)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == DIGESTS[name]
