"""The artifact matrix: configs and CLI commands whose artifacts a refactor must keep byte-identical.

Each config is a named patch to ``configs/reference.json`` or to another config
of the table. ``python tests/artifact_matrix.py OUT`` writes the configs to a
temporary directory and runs every command through ``cfgctrl.cli.main`` in this
process, with ``--out OUT``. It uses whichever ``cfgctrl`` comes first on the
import path, so one copy of this file drives another commit's ``src/`` as well:

    git worktree add --detach ../base BASE
    PYTHONPATH=../base/src python tests/artifact_matrix.py artifacts_base
    PYTHONPATH=src python tests/artifact_matrix.py artifacts_head
    diff -r artifacts_base artifacts_head

Beside the artifacts it writes ``OUT/transcript.txt``: each command, then
what it printed (stderr lines marked ``stderr:``) and its exit code, so the
diff covers what the commands print as well. It exits 1 if any command
returns a code other than 0.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path

REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.json"

HEUN_PATHS = {"sampler.scheme": "heun", "sampler.record_x": True}

# nine dimensions and nine full-covariance components: numpy's pairwise row sums (rows of 8 or more entries)
# and non-identity eigenvectors in the field kernel's matrix products
D9_SYSTEM = {
    "dimension": 9,
    "components": [
        {"weight": 1 / 9, "mean": [3 * math.sin(1.7 * k + i) for i in range(9)],
         "cov": {"full_lower": [[2 + 0.1 * k if j == i else 0.2 * math.sin(k + i * j) for j in range(i + 1)]
                                for i in range(9)]}}
        for k in range(9)
    ],
    "conditions": {"odd": [1, 3, 5, 7]},
    "target": "odd",
}

# three components with ascending diagonal covariances, so that eigh returns the identity for each and the field
# kernel rotates none, and a target holding two of them: the stacked pass's posterior of a subset, unrotated
THREE_UNROTATED = {
    "dimension": 2,
    "components": [
        {"weight": 0.3, "mean": [3.0, 0.0], "cov": {"diag": [0.5, 1.0]}},
        {"weight": 0.3, "mean": [-3.0, 1.0], "cov": {"diag": [0.8, 1.5]}},
        {"weight": 0.4, "mean": [0.0, -3.0], "cov": {"diag": [1.0, 2.0]}},
    ],
    "conditions": {"upper": [0, 1], "lower": [2]},
    "target": "upper",
}

# name: (parent, patch); a patch maps a dotted path, where a number indexes a list, to the value set there
CONFIGS = {
    "sweep": ("reference", {"sweep": {"parameter": "w", "values": [1, 2, 5, 10, 15]}}),
    # a Heun run of a law without a sliding surface, recording paths: blank surface columns and Heun grids
    "heun": ("reference", {"controller": {"type": "cfg", "w": 5.0}, **HEUN_PATHS}),
    "d9": ("reference", {"system": D9_SYSTEM, **HEUN_PATHS}),
    # w = 1e7: run keeps 24 of 50 rows, compare flags 26 (cfg) and 39 (rectified_cfgpp) rows and fails smc as every
    # trajectory diverged, so the divergence bookkeeping reaches the artifacts
    "d9_divergent": ("d9", {"controller": {"type": "cfg", "w": 1e7}}),
    # 1,000 start points at d = 2: 27 of them (seed 7) hold a draw off numpy's ziggurat fast path and are redrawn
    "1k": ("reference", {"sampler.trajectories": 1000}),
    # smc with a boundary layer, Heun, recording paths: the saturated switch np.clip(s / layer, -1, 1)
    "boundary": ("reference", {"controller.boundary_layer": 0.05, **HEUN_PATHS}),
    # component 1 at diag [2, 0.5], Heun: eigh returns a swap of the axes for it, so the field kernel rotates
    # component 1 and skips the identity rotation of component 0
    "permuted": ("reference", {"system.components.1.cov": {"diag": [2.0, 0.5]}, "sampler.scheme": "heun"}),
    # one-component targets on rotated components, where the field kernel hands back the lone component's velocity
    # without a softmax: the permuted config's "left" (component 1), and a d = 9 full-covariance component
    "permuted_left": ("permuted", {"system.target": "left"}),
    "d9_one": ("d9", {"system.conditions.one": [4], "system.target": "one"}),
    # sweeps, each one lockstep pass whose swept gain is a per-row column: lambda and k on the reference smc law,
    # w on rectified_cfgpp under Heun recording paths, w and k on the boundary layer (k's column is the only gain
    # column of lambda or k through the saturated switch, in both Heun stages), and w on the d = 9 full-covariance
    # system, where w = 1e7 diverges
    "sweep_lambda": ("reference", {"sweep": {"parameter": "lambda", "values": [3, 4.5, 6, 9]}}),
    "sweep_k": ("reference", {"sweep": {"parameter": "k", "values": [0, 0.05, 0.1, 0.5, 2]}}),
    "sweep_rectified": ("reference", {"controller": {"type": "rectified_cfgpp", "w": 5.0}, **HEUN_PATHS,
                                      "sweep": {"parameter": "w", "values": [1, 2, 5, 10]}}),
    "sweep_boundary": ("boundary", {"sweep": {"parameter": "w", "values": [1, 2, 5, 10, 15]}}),
    "sweep_k_boundary": ("boundary", {"sweep": {"parameter": "k", "values": [0, 0.05, 0.1, 0.5, 2]}}),
    "sweep_d9": ("d9", {"sweep": {"parameter": "w", "values": [1, 5, 1e7]}}),
    "three": ("reference", {"system": THREE_UNROTATED}),
    "sweep_three": ("three", {"sweep": {"parameter": "w", "values": [1, 2, 5, 10]}}),
}

LAWS = "cfg,weight_schedule,apg,cfg_zero_star,rectified_cfgpp,smc"
TESTBED = "--dim 4 --rho 0.5 --gain-deviation seeded"  # the benchmark's testbed; its corridor rows chatter in lockstep
CORRIDOR = "--corridor --k-values 0.02,0.3,1.0,400"

# every command, without --out; the value of --config names a config of the table
COMMANDS = [argv.split() for argv in (
    "run --config reference",
    "run --config heun",
    "run --config d9",
    "run --config 1k",
    "run --config d9_divergent",
    "compare --config d9_divergent --controllers cfg,rectified_cfgpp,smc",
    f"compare --config reference --controllers {LAWS}",
    "sweep --config sweep",
    "sweep --config sweep_lambda",
    "sweep --config sweep_k",
    "sweep --config sweep_rectified",
    "sweep --config sweep_boundary",
    "sweep --config sweep_k_boundary",
    "sweep --config sweep_d9",
    "run --config boundary",
    f"compare --config boundary --controllers {LAWS}",
    "run --config permuted",
    f"compare --config permuted --controllers {LAWS}",
    "run --config permuted_left",
    f"compare --config permuted_left --controllers {LAWS}",
    "run --config d9_one",
    f"compare --config d9_one --controllers {LAWS}",
    "run --config three",
    f"compare --config three --controllers {LAWS}",
    "sweep --config sweep_three",
    # the testbed: a single run, seeded gain deviations at three seeds, a sinusoidal and a noise drift, a negative
    # exponent-form flag value, and corridors, one with an overflowed gain and one whose lone converged gain's chart
    # pad underflows
    "synth --delta 0.5 --w 5 --k 0.5 --dt 0.01 --steps 2000",
    f"synth {TESTBED} --seed 0",
    f"synth {TESTBED} --seed 0 {CORRIDOR}",
    f"synth {TESTBED} --seed 3",
    f"synth {TESTBED} --seed 3 {CORRIDOR}",
    f"synth {TESTBED} --seed 5",
    f"synth {TESTBED} --seed 5 {CORRIDOR}",
    f"synth {TESTBED} --drift sinusoidal {CORRIDOR}",
    f"synth {TESTBED} --drift noise {CORRIDOR}",
    f"synth --drift sinusoidal {TESTBED}",
    "synth --s0=-1e3 --delta 2 --k 50",
    "synth --drift noise --dim 3 --rho 0.4 --gain-deviation seeded --seed 5",
    "synth --corridor --k-values 0.02,0.3,1.0,400,1e306",
    f"synth {CORRIDOR}",
    "synth --corridor --k-values 5e-324 --delta 0 --w 1e160 --dt 1e308 --steps 50",
)]


def _patched(raw: dict, patch: dict) -> dict:
    raw = copy.deepcopy(raw)
    for path, value in patch.items():
        *parents, last = path.split(".")
        block = raw
        for key in parents:
            block = block[int(key) if isinstance(block, list) else key]
        block[int(last) if isinstance(block, list) else last] = copy.deepcopy(value)
    return raw


def configs() -> dict[str, dict]:
    """Every config of the matrix by name, the reference first, each its parent with its patch applied."""
    built = {"reference": json.loads(REFERENCE.read_text())}
    for name, (parent, patch) in CONFIGS.items():
        built[name] = _patched(built[parent], patch)
    return built


def main(out: str) -> int:
    import cfgctrl
    from cfgctrl import cli

    print(f"cfgctrl from {Path(cfgctrl.__file__).parent}", flush=True)
    failed, transcript = [], []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, raw in configs().items():
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(raw))
        for argv in COMMANDS:
            resolved = [str(paths[arg]) if flag == "--config" else arg for flag, arg in zip(["", *argv], argv)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*resolved, "--out", out])
            errors = "".join(f"stderr: {line}" for line in stderr.getvalue().splitlines(keepends=True))
            transcript.append(f"$ {' '.join(argv)}\n{stdout.getvalue()}{errors}exit {code}\n")
            if code != 0:
                failed.append(f"exit {code}: {' '.join(argv)}")
    (Path(out) / "transcript.txt").write_text("".join(transcript))
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/artifact_matrix.py OUT")
    sys.exit(main(sys.argv[1]))
