"""The package namespace: each public name is imported from its submodule on first read, in a fresh interpreter."""

import json
import os
import subprocess
import sys

from conftest import REFERENCE_CONFIG, REPO_ROOT

PUBLIC = {
    "config": ["ConfigError", "ExperimentConfig", "SamplerSpec", "build_control_law", "build_system", "load_config"],
    "control_lab": ["ConvergenceReport", "CorridorRow", "PerturbedDynamics", "corridor_sweep", "simulate_sliding",
                    "stability_corridor"],
    "flow_systems": ["FlowSystem", "GaussComponent", "marginal_velocity", "mc_velocity_oracle", "velocity_pair"],
    "guidance": ["ControlLaw", "SlidingState", "StepContext", "apg_combine", "apply_controller", "cfg_combine",
                 "cfg_zero_star_combine", "rectified_cfgpp_combine", "smc_step", "weight_schedule"],
    "metrics": ["GaussFit", "QualityReport", "phase_plane", "quality_report", "w2_gaussian"],
    "numerics": ["Rng", "spectral_norm"],
    "sampler": ["DivergenceError", "RunResult", "Trace", "run_batch", "sample_trajectory"],
}


def fresh(code: str):
    """The JSON that ``code`` prints as its last line, run in a new interpreter on the suite's import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('cfgctrl.'))"


def test_import_loads_no_submodule():
    assert fresh(f"import json, sys, cfgctrl; print(json.dumps({LOADED}))") == []


def test_a_config_load_and_system_build_load_only_their_modules():
    code = (
        "import json, sys, cfgctrl\n"
        f"cfgctrl.build_system(cfgctrl.load_config({str(REFERENCE_CONFIG)!r}).system)\n"
        f"print(json.dumps({LOADED}))\n"
    )
    want = ["cfgctrl.checks", "cfgctrl.config", "cfgctrl.flow_systems", "cfgctrl.guidance", "cfgctrl.numerics"]
    assert fresh(code) == want


def test_the_testbed_loads_only_the_checks_and_numerics():
    code = "import json, sys\nfrom cfgctrl import control_lab\n" f"print(json.dumps({LOADED}))\n"
    assert fresh(code) == ["cfgctrl.checks", "cfgctrl.control_lab", "cfgctrl.numerics"]


SAMPLING = ["cfgctrl.config", "cfgctrl.flow_systems", "cfgctrl.guidance", "cfgctrl.metrics", "cfgctrl.sampler"]


def cli_modules(*argvs) -> list[str]:
    """The cfgctrl modules a fresh interpreter holds after ``cli.main`` runs each argv, each exiting 0."""
    code = (
        "import json, sys\n"
        "from cfgctrl import cli\n"
        f"codes = [cli.main(argv) for argv in {[list(map(str, argv)) for argv in argvs]!r}]\n"
        f"print(json.dumps([codes, {LOADED}]))\n"
    )
    codes, loaded = fresh(code)
    assert codes == [0] * len(argvs)
    return loaded


def test_synth_loads_only_the_testbed(tmp_path):
    single = ["synth", "--steps", "50", "--out", tmp_path / "single"]
    corridor = ["synth", "--steps", "50", "--out", tmp_path / "corridor", "--corridor", "--k-values", "0.1,1"]
    for argvs in ([single], [corridor]):
        loaded = cli_modules(*argvs)
        assert loaded == ["cfgctrl.checks", "cfgctrl.cli", "cfgctrl.control_lab", "cfgctrl.numerics",
                          "cfgctrl.svgplot"]
        assert not set(SAMPLING) & set(loaded)


def test_run_loads_the_sampling_modules(tmp_path):
    loaded = cli_modules(["run", "--config", REFERENCE_CONFIG, "--out", tmp_path])
    assert set(SAMPLING) <= set(loaded)


def test_the_config_error_is_one_class_under_the_same_39_names():
    code = (
        "import json, cfgctrl\n"
        "from cfgctrl import checks, config, control_lab\n"
        "same = [cfgctrl.ConfigError is config.ConfigError, config.ConfigError is checks.ConfigError,"
        " control_lab.ConfigError is checks.ConfigError]\n"
        "print(json.dumps([same, cfgctrl.__all__]))\n"
    )
    same, names = fresh(code)
    assert same == [True, True, True]
    assert names == sorted(n for ns in PUBLIC.values() for n in ns) and len(names) == 39


def test_each_public_name_is_its_module_object():
    code = (
        "import importlib, json, cfgctrl\n"
        "names = list(cfgctrl.__all__)\n"
        f"same = {{m: [getattr(cfgctrl, n) is getattr(importlib.import_module('cfgctrl.' + m), n) for n in ns]"
        f" for m, ns in {PUBLIC!r}.items()}}\n"
        "print(json.dumps([names, same]))\n"
    )
    names, same = fresh(code)
    assert names == sorted(n for ns in PUBLIC.values() for n in ns) and len(names) == 39
    assert same == {m: [True] * len(ns) for m, ns in PUBLIC.items()}


def test_dir_star_import_and_unknown_names():
    code = (
        "import json, cfgctrl\n"
        "listed = dir(cfgctrl)\n"
        "scope = {}\n"
        "exec('from cfgctrl import *', scope)\n"
        "try:\n"
        "    cfgctrl.no_such_name\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps([[n for n in cfgctrl.__all__ if n not in listed], sorted(set(scope) - {'__builtins__'}),"
        " error]))\n"
    )
    missing, bound, error = fresh(code)
    assert missing == []
    assert bound == sorted(n for ns in PUBLIC.values() for n in ns)
    assert "no_such_name" in error


def test_submodules_and_version():
    code = (
        "import json, sys, cfgctrl\n"
        "sampler = cfgctrl.sampler\n"
        "from cfgctrl import cli\n"
        "print(json.dumps([sampler is sys.modules['cfgctrl.sampler'], cli is sys.modules['cfgctrl.cli'],"
        " cfgctrl.__version__]))\n"
    )
    assert fresh(code) == [True, True, "0.1.0"]
