"""The artifact matrix at parse level: every config it builds is valid, every command parses and names a config."""

import pytest

import artifact_matrix
from cfgctrl import cli
from cfgctrl.config import build_system, config_from_dict

CONFIGS = artifact_matrix.configs()


@pytest.mark.parametrize("name", CONFIGS)
def test_each_config_parses_and_builds_its_system(name):
    build_system(config_from_dict(CONFIGS[name]).system)


@pytest.mark.parametrize("argv", artifact_matrix.COMMANDS, ids=" ".join)
def test_each_command_parses_and_names_a_defined_config(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == "synth" or args.config in CONFIGS


def test_three_component_target_is_an_unrotated_pair():
    spec = config_from_dict(CONFIGS["three"]).system
    system = build_system(spec)
    assert system._unrotated == (True, True, True) and len(system.component_indices(spec.target)) == 2
