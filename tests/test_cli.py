import json
import math
import os
import pathlib
import struct
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cstirap import cli, dynamics
from cstirap.cli import (EXPERIMENTS, ConfigError, RunConfig, _ALLOWED_KEYS,
                         _MAX_PAIRS, _MAX_SAMPLES, config_hash, emit_table, main,
                         parse_config, print_phases)
from cstirap.experiments import FidelityResult
from cstirap.phases import CompositeSequence, cap_phases, resonant_phases


def _scan_config(**over):
    cfg = {
        "experiment": "scan",
        "pulse": {"shape": "sin2", "omega0": 30.0},
        "sequence": {"source": "resonant", "n": 3},
        "grid": [{"name": "omega0", "min": 20.0, "max": 24.0, "points": 3}],
        "tolerance": {"rtol": 1e-8, "atol": 1e-10},
    }
    cfg.update(over)
    return cfg


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_config_fills_defaults():
    cfg = parse_config(_scan_config(), "scan")
    assert cfg.scan.width == 1.0
    assert cfg.scan.delay is None
    assert cfg.scan.system.delta == 0.0
    assert cfg.scan.gap == 0.0
    assert cfg.seed == 0
    assert cfg.sequence.n_pairs == 3
    assert len(cfg.digest) == 64


def test_parse_config_builds_sequence():
    explicit = {"source": "explicit", "n": 3, "pump_phases": [0, 1.0, 2.0],
                "stokes_phases": [2.0, 1.0, 0.0], "alternate": False}
    for sequence, expected in [
            ({"source": "single"}, resonant_phases(1)),
            ({"source": "resonant", "n": 5}, resonant_phases(5)),
            ({"source": "cap", "n": 5}, cap_phases(5)),
            (explicit, CompositeSequence(3, (0.0, 1.0, 2.0), (2.0, 1.0, 0.0), False))]:
        cfg = parse_config(_scan_config(sequence=sequence), "scan")
        assert cfg.sequence == expected
        assert cfg.scan.sequence == cfg.sequence
    # A single pair carries no phases and runs forward.
    assert resonant_phases(1) == CompositeSequence(1, (0.0,), (0.0,), True)


def test_hash_covers_seed_but_not_out():
    base = parse_config(_scan_config(), "scan")
    seeded = parse_config(_scan_config(seed=5), "scan")
    routed = parse_config(_scan_config(out="somewhere.csv"), "scan")
    assert base.digest != seeded.digest
    assert base.digest == routed.digest
    assert parse_config(_scan_config(), "scan", seed=5).digest == seeded.digest


def test_parse_collects_all_violations():
    bad = {
        "experiment": "scan",
        "pulse": {"shape": "box", "omega0": -3, "slope": 1},
        "sequence": {"source": "resonant", "n": 4},
        "grid": [],
        "bogus": True,
    }
    with pytest.raises(ConfigError) as err:
        parse_config(bad, "scan")
    text = "\n".join(err.value.problems)
    for fragment in ("bogus", "pulse.shape", "pulse.omega0", "pulse.slope",
                     "sequence.n", "grid"):
        assert fragment in text
    assert len(err.value.problems) >= 6


def test_experiment_mismatch_rejected():
    with pytest.raises(ConfigError, match="subcommand"):
        parse_config(_scan_config(), "simulate")


def test_grid_arity_rules():
    with pytest.raises(ConfigError, match="takes 2"):
        parse_config(_scan_config(experiment="contour"), "contour")
    decay = _scan_config(experiment="decay",
                         grid=[{"name": "delta", "min": 0.1, "max": 1.0, "points": 2}])
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(decay, "decay")
    dup = _scan_config(experiment="contour",
                       grid=[{"name": "omega0", "min": 1, "max": 2, "points": 2},
                             {"name": "omega0", "min": 1, "max": 2, "points": 2}])
    with pytest.raises(ConfigError, match="differ"):
        parse_config(dup, "contour")


def test_montecarlo_needs_noise_block():
    cfg = _scan_config(experiment="montecarlo", grid=[])
    with pytest.raises(ConfigError, match="noise"):
        parse_config(cfg, "montecarlo")
    cfg["noise"] = {"sigma": 0.01}
    parsed = parse_config(cfg, "montecarlo")
    assert parsed.noise == (0.01, 1000)


def test_keys_scoped_to_experiment():
    with pytest.raises(ConfigError, match="noise"):
        parse_config(_scan_config(noise={"sigma": 0.1}), "scan")
    phases_cfg = {"experiment": "phases",
                  "sequence": {"source": "resonant", "n": 3},
                  "pulse": {"shape": "sin2", "omega0": 1.0}}
    with pytest.raises(ConfigError, match="pulse"):
        parse_config(phases_cfg, "phases")


def test_solve_phases_config_rules():
    cfg = {
        "experiment": "solve-phases",
        "pulse": {"shape": "sin2", "omega0": 23.0},
        "sequence": {"source": "resonant", "n": 3},
        "system": {"gamma": 0.2},
    }
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(cfg, "solve-phases")
    del cfg["system"]
    parsed = parse_config(cfg, "solve-phases")
    assert parsed.solver == (2000, 1e-6, 0.01)
    assert parse_config(_scan_config(), "scan").solver is None


_TOP_LEVEL_KEYS = {
    "simulate": {"experiment", "sequence", "seed", "out",
                 "pulse", "system", "tolerance", "gap", "grid"},
    "scan": {"experiment", "sequence", "seed", "out",
             "pulse", "system", "tolerance", "gap", "grid"},
    "contour": {"experiment", "sequence", "seed", "out",
                "pulse", "system", "tolerance", "gap", "grid"},
    "montecarlo": {"experiment", "sequence", "seed", "out",
                   "pulse", "system", "tolerance", "gap", "grid", "noise"},
    "decay": {"experiment", "sequence", "seed", "out",
              "pulse", "system", "tolerance", "gap", "grid"},
    "phases": {"experiment", "sequence", "seed", "out"},
    "solve-phases": {"experiment", "sequence", "seed", "out",
                     "pulse", "system", "tolerance", "gap", "solver"},
}


def test_experiment_kinds_are_pinned_in_order():
    # The order sets the subcommands' order and the draws of the
    # derandomized property tests.
    assert EXPERIMENTS == ("simulate", "scan", "contour", "montecarlo", "decay",
                           "phases", "solve-phases")
    assert _ALLOWED_KEYS == _TOP_LEVEL_KEYS


@pytest.mark.parametrize("kind", EXPERIMENTS)
def test_each_kind_reads_exactly_its_top_level_keys(kind):
    cfg = _valid_config(kind)
    parse_config(cfg, kind)
    for key in sorted(set().union(*_TOP_LEVEL_KEYS.values()) - _TOP_LEVEL_KEYS[kind]):
        with pytest.raises(ConfigError) as err:
            parse_config(dict(cfg, **{key: {}}), kind)
        assert err.value.problems == (f"{key}: not a valid key for {kind!r}",)


@pytest.mark.parametrize("kind,counts", [("simulate", (0,)), ("scan", (1,)), ("contour", (2,)),
                                         ("montecarlo", (0, 1)), ("decay", (1,))])
def test_grid_axis_counts_per_kind(kind, counts):
    # gamma first: the decay experiment sweeps gamma; contour axes must differ.
    axes = [{"name": name, "min": 0.5, "max": 1.0, "points": 2}
            for name in ("gamma", "omega0", "delta")]
    for count in range(4):
        cfg = dict(_valid_config(kind), grid=axes[:count])
        if count in counts:
            assert len(parse_config(cfg, kind).scan.axes) == count
            continue
        with pytest.raises(ConfigError) as err:
            parse_config(cfg, kind)
        want = " or ".join(map(str, counts))
        assert err.value.problems == (f"grid: {kind!r} takes {want} swept axes, got {count}",)


def test_solve_phases_reports_solver_and_gamma_problems_together():
    cfg = _valid_config("solve-phases")
    cfg["solver"]["budget"] = 0
    cfg["system"]["gamma"] = 0.2
    with pytest.raises(ConfigError) as err:
        parse_config(cfg, "solve-phases")
    assert sorted(err.value.problems) == ["solver.budget: must be an integer >= 1",
                                          "system.gamma: phase optimization assumes gamma = 0"]


def test_canonical_hash_key_order_invariant():
    a = {"x": 1, "y": {"b": 2, "a": 3}}
    b = {"y": {"a": 3, "b": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)


def test_emit_table_format():
    rows = [FidelityResult((("omega0", 20.0),), 0.1, 0.2, 0.7, 0.3,
                           1.2345678901234567e-09)]
    text = emit_table(rows, ["omega0"], "f" * 64)
    lines = text.splitlines()
    assert lines[0] == "omega0,P1,P2,P3,infidelity,norm_loss"
    assert lines[1].split(",")[0] == "20"
    assert float(lines[1].split(",")[-1]) == 1.2345678901234567e-09
    assert lines[2] == "# sha256=" + "f" * 64
    assert text.endswith("\n")


_SPECIAL_DOUBLES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                    2.2250738585072009e-308, sys.float_info.min, sys.float_info.max,
                    -sys.float_info.max, 1.0 + sys.float_info.epsilon, 0.1]


def _bits(x):
    return struct.pack("<d", x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.floats() | st.sampled_from(_SPECIAL_DOUBLES),
                         min_size=6, max_size=6), max_size=4))
def test_emit_table_round_trips_doubles(rows):
    results = [FidelityResult((("delta", r[0]),), *r[1:]) for r in rows]
    lines = emit_table(results, ["delta"], "0" * 64).splitlines()
    assert len(lines) == len(rows) + 2
    for row, line in zip(rows, lines[1:]):
        back = [float(cell) for cell in line.split(",")]
        assert len(back) == 6
        for x, y in zip(row, back):
            # A NaN's sign and payload have no text form; every other
            # double, subnormals and signed zeros included, comes back
            # bit for bit.
            assert math.isnan(y) if math.isnan(x) else _bits(x) == _bits(y)


def test_emit_table_empty():
    text = emit_table([], [], "0" * 64)
    assert text == "P1,P2,P3,infidelity,norm_loss\n# sha256=" + "0" * 64 + "\n"


PINNED_TABLES = [
    ("resonant", 3, "(0, 1; 3, 3; 1, 0)π/3"),
    ("resonant", 5, "(0, 4; 5, 8; 3, 3; 8, 5; 4, 0)π/5"),
    ("resonant", 7, "(0, 9; 7, 1; 5, 8; 12, 12; 8, 5; 1, 7; 9, 0)π/7"),
    ("resonant", 9,
     "(0, 16; 9, 6; 7, 15; 16, 3; 12, 12; 3, 16; 15, 7; 6, 9; 16, 0)π/9"),
    ("cap", 3, "(0, 1, 0)2π/3"),
    ("cap", 5, "(0, 2,1,2, 0)2π/5"),
    ("cap", 7, "(0, 3,2,4,2,3, 0)2π/7"),
    ("cap", 9, "(0, 4,3,6,4,6,3,4, 0)2π/9"),
    ("resonant", 1, "(0, 0)"),
    ("cap", 1, "(0, 0)"),
]


@pytest.mark.parametrize("source,n,expected", PINNED_TABLES)
def test_print_phases_exact(source, n, expected):
    assert print_phases(source, n) == expected


def test_main_scan_roundtrip(tmp_path):
    path = _write(tmp_path, "scan.json", _scan_config())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--config", path, "--out", str(out1)]) == 0
    assert main(["scan", "--config", path, "--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "omega0,P1,P2,P3,infidelity,norm_loss"
    assert len(lines) == 5 and lines[-1].startswith("# sha256=")


@pytest.mark.parametrize("experiment,over", [
    ("decay", {"grid": [{"name": "gamma", "min": 0.2, "max": 0.6, "points": 2}]}),
    ("montecarlo", {"grid": [{"name": "omega0", "min": 20.0, "max": 24.0, "points": 2}],
                    "noise": {"sigma": 0.02, "samples": 20}}),
], ids=["decay-3x3", "montecarlo"])
def test_blas_threads_leave_the_bits_alone(tmp_path, experiment, over):
    # The package sets OPENBLAS_NUM_THREADS=1 only where it is unset; a
    # user's own setting must give the same table.
    cfg = _scan_config(experiment=experiment, **over)
    path = _write(tmp_path, "c.json", cfg)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(sys.path)
    outs = []
    for env in (base, dict(base, OPENBLAS_NUM_THREADS="2")):
        out = tmp_path / f"{len(outs)}.csv"
        argv = [sys.executable, "-m", "cstirap.cli", experiment, "--config", path,
                "--out", str(out)]
        assert subprocess.run(argv, env=env).returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_main_phases_stdout(tmp_path, capsys):
    path = _write(tmp_path, "p.json",
                  {"experiment": "phases", "sequence": {"source": "cap", "n": 5}})
    assert main(["phases", "--config", path]) == 0
    assert capsys.readouterr().out == "(0, 2,1,2, 0)2π/5\n"


def test_main_exit_codes(tmp_path, capsys):
    assert main(["scan", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["scan", "--config", str(bad)]) == 1
    assert main(["scan"]) == 1                   # usage error, not exit 2
    assert main(["--help"]) == 0
    wrong = _write(tmp_path, "wrong.json", _scan_config(seed=-1))
    assert main(["scan", "--config", wrong]) == 1
    assert "config error" in capsys.readouterr().err


def test_main_numerical_failure_still_writes(tmp_path):
    cfg = _scan_config(grid=[{"name": "delay", "min": -0.2, "max": 0.4,
                              "points": 2}])
    path = _write(tmp_path, "fail.json", cfg)
    out = tmp_path / "fail.csv"
    assert main(["scan", "--config", path, "--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert "nan" in lines[1]
    assert lines[-1].startswith("# sha256=")


def test_main_seed_flag_changes_montecarlo(tmp_path, capsys):
    cfg = {
        "experiment": "montecarlo",
        "pulse": {"shape": "sin2", "omega0": 23.0},
        "sequence": {"source": "resonant", "n": 3},
        "noise": {"sigma": 0.02, "samples": 20},
        "tolerance": {"rtol": 1e-8, "atol": 1e-10},
    }
    path = _write(tmp_path, "mc.json", cfg)
    assert main(["montecarlo", "--config", path, "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["montecarlo", "--config", path, "--seed", "2"]) == 0
    second = capsys.readouterr().out
    assert first != second
    assert main(["montecarlo", "--config", path, "--seed", "1"]) == 0
    assert capsys.readouterr().out == first


def test_main_decay_emits_configured_curve(tmp_path):
    grid = [{"name": "gamma", "min": 0.2, "max": 0.6, "points": 2}]
    single = {"experiment": "decay", "pulse": {"shape": "sin2", "omega0": 30.0},
              "sequence": {"source": "single"}, "grid": grid,
              "tolerance": {"rtol": 1e-8, "atol": 1e-10}}
    comp = dict(single, sequence={"source": "resonant", "n": 3})
    s_out, c_out = tmp_path / "s.csv", tmp_path / "c.csv"
    assert main(["decay", "--config", _write(tmp_path, "s.json", single),
                 "--out", str(s_out)]) == 0
    assert main(["decay", "--config", _write(tmp_path, "c.json", comp),
                 "--out", str(c_out)]) == 0
    s_rows = s_out.read_text().splitlines()
    c_rows = c_out.read_text().splitlines()
    assert s_rows[0].startswith("gamma,")
    assert s_rows[1] != c_rows[1]    # different curves from the same grid


def test_main_solve_phases_output(tmp_path):
    cfg = {
        "experiment": "solve-phases",
        "pulse": {"shape": "sin2", "omega0": 23.0},
        "sequence": {"source": "resonant", "n": 3},
        "solver": {"budget": 300},
        "tolerance": {"rtol": 1e-8, "atol": 1e-10},
    }
    out = tmp_path / "solved.csv"
    path = _write(tmp_path, "solve.json", cfg)
    assert main(["solve-phases", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,alpha,beta"
    assert len([l for l in lines if not l.startswith("#")]) == 4
    assert any(l.startswith("# infidelity=") for l in lines)
    assert any(l.startswith("# converged=") for l in lines)
    assert lines[-1].startswith("# sha256=")


def _solve_config(**over):
    cfg = {"experiment": "solve-phases",
           "pulse": {"shape": "sin2", "omega0": 20.0},
           "system": {"delta": 3.0},
           "sequence": {"source": "resonant", "n": 3},
           "solver": {"budget": 100},
           "tolerance": {"rtol": 1e-8, "atol": 1e-10}}
    cfg.update(over)
    return cfg


def test_main_solve_phases_applies_gap(tmp_path):
    found = []
    for gap in (0.0, 0.7):
        out = tmp_path / f"gap{gap}.csv"
        path = _write(tmp_path, f"gap{gap}.json", _solve_config(gap=gap))
        assert main(["solve-phases", "--config", path, "--out", str(out)]) == 0
        found.append([l for l in out.read_text().splitlines()
                      if l.startswith("# infidelity=")])
    assert len(found[0]) == len(found[1]) == 1
    assert found[0] != found[1]


_NOT_FINITE = ("composed populations are not finite "
               "(the gap or the phase noise overflows)")


@pytest.mark.parametrize("experiment,over", [
    ("simulate", {"system": {"delta": 3.0}, "gap": 1e308}),
    ("montecarlo", {"noise": {"sigma": 1e308}}),
], ids=["gap", "noise"])
def test_overflowing_composition_fails_the_point(tmp_path, experiment, over):
    cfg = {"experiment": experiment, "pulse": {"shape": "sin2", "omega0": 20.0},
           "sequence": {"source": "resonant", "n": 3}}
    cfg.update(over)
    out = tmp_path / "overflow.csv"
    assert main([experiment, "--config", _write(tmp_path, "overflow.json", cfg),
                 "--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert lines[1] == "nan,nan,nan,nan,nan"
    assert lines[2] == f"# error row=0: {_NOT_FINITE}"
    assert lines[3].startswith("# sha256=")


@pytest.mark.parametrize("experiment,over", [
    ("simulate", {"system": {"delta": 3.0}, "gap": 1e308}),
    ("montecarlo", {"noise": {"sigma": 1e308}}),
    ("simulate", {"pulse": {"shape": "sin2", "omega0": 1e300}}),
    ("simulate", {"system": {"delta": 1e300}}),
], ids=["gap", "noise", "omega0", "delta"])
def test_overflowing_composition_prints_no_warning(tmp_path, experiment, over):
    # The failed row carries the reason; numpy must not add a warning with
    # a source path on stderr. A fresh process sees what a user sees.
    cfg = {"experiment": experiment, "pulse": {"shape": "sin2", "omega0": 20.0},
           "sequence": {"source": "resonant", "n": 3}}
    cfg.update(over)
    args = [experiment, "--config", _write(tmp_path, "o.json", cfg),
            "--out", str(tmp_path / "o.csv")]
    code = f"import sys; from cstirap.cli import main; sys.exit(main({args!r}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 2
    assert "Warning" not in run.stderr, run.stderr


def test_solve_phases_overflowing_seed_is_an_error(tmp_path):
    out = tmp_path / "overflow.csv"
    path = _write(tmp_path, "overflow.json", _solve_config(gap=1e308))
    assert main(["solve-phases", "--config", path, "--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert lines[:2] == ["k,alpha,beta", f"# error={_NOT_FINITE}"]
    assert len(lines) == 3 and lines[2].startswith("# sha256=")


@pytest.mark.parametrize("experiment,axis", [
    ("scan", {"name": "gamma", "min": -0.5, "max": 0.5, "points": 3}),
    ("decay", {"name": "gamma", "min": -0.5, "max": 0.5, "points": 3}),
    ("scan", {"name": "omega0", "min": -1.0, "max": 5.0, "points": 3}),
])
def test_grid_axis_domain_rejected(tmp_path, capsys, experiment, axis):
    cfg = _scan_config(experiment=experiment, grid=[axis])
    with pytest.raises(ConfigError) as err:
        parse_config(cfg, experiment)
    assert err.value.problems == (
        f"grid[0]: {axis['name']} axis must stay >= 0 (min is {axis['min']:g})",)
    path = _write(tmp_path, "bad.json", cfg)
    assert main([experiment, "--config", path]) == 1
    assert "config error: grid[0]: " in capsys.readouterr().err


def test_grid_axis_span_beyond_float_range_rejected(tmp_path):
    # Its values were [nan, inf, 1e308]: two rows labelled nan and inf, and
    # two numpy warnings with source paths on stderr.
    cfg = _scan_config(grid=[{"name": "delta", "min": -1e308, "max": 1e308, "points": 3}])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-m", "cstirap.cli", "scan", "--config",
                          _write(tmp_path, "wide.json", cfg)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr == "config error: grid[0]: axis span must be finite\n"
    assert run.stdout == ""


def test_delay_axis_from_zero_says_why(tmp_path):
    cfg = _scan_config(grid=[{"name": "delay", "min": 0.0, "max": 0.5, "points": 3}])
    out = tmp_path / "zero.csv"
    assert main(["scan", "--config", _write(tmp_path, "zero.json", cfg),
                 "--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert "nan" in lines[1] and "nan" not in lines[2]
    assert lines[-2:-1] == ["# error row=0: delay must be > 0"]
    assert lines[-1].startswith("# sha256=")


def test_emit_table_error_lines():
    nan = float("nan")
    rows = [FidelityResult((("delay", 0.0),), nan, nan, nan, nan, nan,
                           error="delay must be > 0"),
            FidelityResult((("delay", 0.5),), 0.1, 0.2, 0.7, 0.3, 0.0),
            FidelityResult((("delay", 1.0),), nan, nan, nan, nan, nan,
                           error="Magnus stepping missed\nrtol (t = 2)")]
    lines = emit_table(rows, ["delay"], "a" * 64).splitlines()
    assert lines[1].startswith("0,nan,nan")
    assert lines[4:] == ["# error row=0: delay must be > 0",
                         "# error row=2: Magnus stepping missed rtol (t = 2)",
                         "# sha256=" + "a" * 64]
    # Without failures the table carries no error lines at all.
    clean = emit_table(rows[1:2], ["delay"], "a" * 64).splitlines()
    assert clean[-1] == "# sha256=" + "a" * 64 and len(clean) == 3


@pytest.mark.parametrize("edit", [
    lambda c: c["pulse"].update(delay=1e300),
    lambda c: c["pulse"].update(width=1e-300, delay=1.0),
    lambda c: c.update(tolerance={"rtol": 1e-300, "atol": 1e-300}),
])
def test_integrator_limits_fail_the_point(tmp_path, monkeypatch, edit):
    # A lower step limit keeps the tolerance case short; the other two
    # need far more than 2**20 steps from the start.
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 1 << 12)
    cfg = {"experiment": "simulate", "pulse": {"shape": "sin2", "omega0": 30}}
    edit(cfg)
    out = tmp_path / "limit.csv"
    assert main(["simulate", "--config", _write(tmp_path, "limit.json", cfg),
                 "--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert lines[1].startswith("nan,")
    assert lines[2].startswith("# error row=0: Magnus stepping")
    assert lines[3].startswith("# sha256=")


# Digests of the shipped configs and of _scan_config() (the README
# example): the `# sha256=` line of every table depends on them.
_DIGESTS = {
    "contour_far_detuned": "ea4fdb89952ffb4646beb8c72ef8d57597f86a400705d85945931cc95524ecde",
    "contour_resonant": "c1e5fb04d2dea27369f36f6d6cabfcf562e58862d0aab3be5cd3ec41f5717273",
    "decay_composite": "0d8858654906025907cc8230afd9df10b06097ffba75602497c2be31612f6531",
    "decay_single": "6f1eced7fa44f56ca979d6970b2c96ebfa26aee1040ed0c540827972d7de2dde",
    "montecarlo_phase_noise": "322cbe82132a28a12e1a52b4c878cd46a1ce58d25726c36b21e43c40ffb05dbe",
    "phases_resonant_n5": "d64dd4bd99499d2466156c10a155700d8aa223b6f9525a7de90318224e27d9dc",
    "scan_resonant_gaussian": "8a22d42eeae116777799ac2524a7192f01a04ed879ca35bcba3d9c45e43b9c5e",
    "scan_resonant_sin2": "4bf41c07b0dd3c9bd9a2978258c37dd4e08092c67ea860f5ed5b9b80aa79046e",
    "solve_phases_n3": "95e222429d0b206d03d7acc1e82bed5899142b4e11127a36777be0118c73ec69",
}
_CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_shipped_config_digest_pinned(name):
    data = json.loads((_CONFIGS / f"{name}.json").read_text())
    assert parse_config(data, data["experiment"]).digest == _DIGESTS[name]


def test_example_config_digest_pinned():
    assert parse_config(_scan_config(), "scan").digest == (
        "80b4cdd01bce6fd2658d99998c4e1f7e0dec668870d9481c14e26883d69fdb6a")


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, cstirap.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# An integer too large for a float: math.isfinite raises OverflowError on it.
_HUGE = 10 ** 400


@pytest.mark.parametrize("path,edit", [
    ("pulse.omega0", lambda c: c["pulse"].update(omega0=_HUGE)),
    ("gap", lambda c: c.update(gap=_HUGE)),
    ("grid[0]", lambda c: c["grid"][0].update(max=_HUGE)),
    pytest.param("grid[0]", lambda c: c["grid"][0].update(points=_HUGE),
                 id="grid[0]-points-huge"),
    pytest.param("grid[0]", lambda c: c["grid"][0].update(points=2 ** 63),
                 id="grid[0]-points-2**63"),
    ("sequence.pump_phases", lambda c: c.update(sequence={
        "source": "explicit", "n": 3, "pump_phases": [0, _HUGE, 0],
        "stokes_phases": [0, 0, 0], "alternate": True})),
])
def test_huge_integer_is_not_a_number(tmp_path, capsys, path, edit):
    cfg = _scan_config()
    edit(cfg)
    assert main(["scan", "--config", _write(tmp_path, "huge.json", cfg)]) == 1
    assert f"config error: {path}" in capsys.readouterr().err


def _with(section, **values):
    return lambda c: c[section].update(values)


@pytest.mark.parametrize("kind,edit,problem", [
    pytest.param("phases", _with("sequence", n=10 ** 30 + 1),
                 f"sequence.n: may be at most {_MAX_PAIRS}", id="sequence.n-10**30+1"),
    pytest.param("scan", _with("sequence", n=_MAX_PAIRS + 2),
                 f"sequence.n: may be at most {_MAX_PAIRS}", id="sequence.n-limit+2"),
    pytest.param("montecarlo", _with("noise", samples=10 ** 30),
                 f"noise.samples: may be at most {_MAX_SAMPLES}", id="noise.samples-10**30"),
    pytest.param("montecarlo", _with("noise", samples=_MAX_SAMPLES + 1),
                 f"noise.samples: may be at most {_MAX_SAMPLES}", id="noise.samples-limit+1"),
    pytest.param("phases", _with("sequence", n=10 ** 30),
                 "sequence.n: must be a positive odd integer", id="sequence.n-10**30"),
])
def test_size_limits(tmp_path, capsys, kind, edit, problem):
    cfg = _valid_config(kind)
    edit(cfg)
    assert main([kind, "--config", _write(tmp_path, "big.json", cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {problem}\n"


def test_size_limits_admit_the_limit():
    cfg = _valid_config("montecarlo")
    cfg["noise"]["samples"] = _MAX_SAMPLES
    assert parse_config(cfg, "montecarlo").noise[1] == _MAX_SAMPLES
    cfg = _valid_config("phases")
    cfg["sequence"]["n"] = _MAX_PAIRS
    assert parse_config(cfg, "phases").sequence.n_pairs == _MAX_PAIRS


def _valid_config(kind):
    """A config that parses for `kind`, with every key it allows."""
    seq = ({"source": "resonant", "n": 3} if kind == "phases" else
           {"source": "explicit", "n": 3, "pump_phases": [0.0, 1.0, 2.0],
            "stokes_phases": [2.0, 1.0, 0.0], "alternate": True})
    axis = {"name": "gamma", "min": 0.0, "max": 1.0, "points": 3, "spacing": "linear"}
    grid = {"simulate": [], "scan": [axis], "montecarlo": [axis], "decay": [axis],
            "contour": [axis, dict(axis, name="omega0", min=1.0, max=2.0)]}.get(kind)
    full = {"experiment": kind, "sequence": seq, "seed": 1, "out": "t.csv",
            "pulse": {"shape": "sin2", "omega0": 30.0, "width": 1.0, "delay": None},
            "system": {"delta": 0.0, "gamma": 0.0},
            "tolerance": {"rtol": 1e-8, "atol": 1e-10}, "gap": 0.0, "grid": grid,
            "noise": {"sigma": 0.01, "samples": 10},
            "solver": {"budget": 10, "xatol": 1e-6, "simplex_step": 0.01}}
    return {k: v for k, v in full.items() if k in _ALLOWED_KEYS[kind]}


def _paths(node, prefix=()):
    yield prefix
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


_json = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers() | st.sampled_from([_HUGE, -_HUGE, 2 ** 64, 3, 0.0]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(EXPERIMENTS))
    cfg = _valid_config(kind)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        cfg = _replace(cfg, path, draw(_json))
    return kind, cfg


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_configs())
def test_parse_config_returns_config_or_config_error(case):
    kind, cfg = case
    try:
        parsed = parse_config(cfg, kind)
    except ConfigError as exc:
        assert exc.problems and all(isinstance(p, str) for p in exc.problems)
    else:
        assert isinstance(parsed, RunConfig) and parsed.experiment == kind


def _refuse_to_compute(cfg):
    raise AssertionError("a point was computed")



def _set(cfg, path, value):
    section, key = path.split(".")
    (cfg["grid"][0] if section == "grid[0]" else cfg[section])[key] = value


# One bad value for every key of every key table: (experiment, key path, value).
_BAD_VALUES = [
    ("scan", "pulse.shape", "box"),
    ("scan", "pulse.omega0", 0),
    ("scan", "pulse.width", -1.0),
    ("scan", "pulse.delay", 0.0),
    ("scan", "system.delta", "3"),
    ("scan", "system.gamma", -0.1),
    ("scan", "tolerance.rtol", 0),
    ("scan", "tolerance.atol", None),
    ("montecarlo", "noise.sigma", math.nan),
    ("montecarlo", "noise.samples", 0),
    ("solve-phases", "solver.budget", 1.5),
    ("solve-phases", "solver.xatol", -1e-6),
    ("solve-phases", "solver.simplex_step", True),
    ("scan", "sequence.source", "box"),
    ("scan", "sequence.n", 2),
    ("scan", "sequence.pump_phases", [0.0, "x", 2.0]),
    ("scan", "sequence.stokes_phases", 1.0),
    ("scan", "sequence.alternate", 1),
    ("scan", "grid[0].name", "area"),
    ("scan", "grid[0].min", math.inf),
    ("scan", "grid[0].max", "1"),
    ("scan", "grid[0].points", 1),
    ("scan", "grid[0].spacing", "cubic"),
]


@pytest.mark.parametrize("kind,path,value", _BAD_VALUES,
                         ids=[path for _, path, _ in _BAD_VALUES])
def test_bad_value_names_its_key_path(kind, path, value):
    cfg = _valid_config(kind)
    _set(cfg, path, value)
    with pytest.raises(ConfigError) as err:
        parse_config(cfg, kind)
    assert len(err.value.problems) == 1, err.value.problems
    assert err.value.problems[0].startswith(f"{path}: ")


@pytest.mark.parametrize("kind", EXPERIMENTS)
def test_spelled_out_defaults_keep_the_digest(kind):
    axis = {"name": "gamma", "min": 0.0, "max": 1.0, "points": 3}
    grid = {"scan": [axis], "decay": [axis],
            "contour": [axis, dict(axis, name="omega0")]}.get(kind, [])
    bare = {"pulse": {"shape": "sin2", "omega0": 30.0}, "noise": {"sigma": 0.01}}
    if kind == "phases":
        bare["sequence"] = {"source": "cap"}
    if grid:
        bare["grid"] = grid
    full = {"experiment": kind, "seed": 0, "out": None, "gap": 0.0,
            "sequence": dict({"source": "single", "n": 1}, **bare.get("sequence", {})),
            "pulse": dict(bare["pulse"], width=1.0, delay=None),
            "system": {"delta": 0.0, "gamma": 0.0},
            "tolerance": {"rtol": dynamics.DEFAULT_RTOL, "atol": dynamics.DEFAULT_ATOL},
            "grid": [dict(a, spacing="linear") for a in grid],
            "noise": {"sigma": 0.01, "samples": 1000},
            "solver": {"budget": 2000, "xatol": 1e-6, "simplex_step": 0.01}}

    def allowed(cfg):
        return {k: v for k, v in cfg.items() if k in _ALLOWED_KEYS[kind]}

    assert parse_config(allowed(bare), kind).digest == parse_config(allowed(full), kind).digest


_EXPLICIT = {"source": "explicit", "n": 3, "pump_phases": [0.0, 1.0, 2.0],
             "stokes_phases": [2.0, 1.0, 0.0], "alternate": True}


@pytest.mark.parametrize("sequence,problem", [
    pytest.param({"source": "single", "n": 3}, "sequence.n: a single pair means n = 1",
                 id="single-with-n"),
    pytest.param(dict(_EXPLICIT, pump_phases=[0.0, 1.0]),
                 "sequence.pump_phases: must be a list of 3 numbers", id="explicit-short-list"),
    pytest.param({k: v for k, v in _EXPLICIT.items() if k != "alternate"},
                 "sequence.alternate: must be true or false", id="explicit-no-alternate"),
])
def test_sequence_rules_across_keys(tmp_path, capsys, sequence, problem):
    with pytest.raises(ConfigError) as err:
        parse_config(_scan_config(sequence=sequence), "scan")
    assert err.value.problems == (problem,)
    path = _write(tmp_path, "scan.json", _scan_config(sequence=sequence))
    assert main(["scan", "--config", path]) == 1
    assert capsys.readouterr().err == f"config error: {problem}\n"


def test_unknown_kind_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        parse_config(_scan_config(), "bogus")
    assert err.value.problems == ("experiment: unknown kind 'bogus'",)


@pytest.mark.parametrize("argv,message", [
    pytest.param(["bogus"], "invalid choice: 'bogus'", id="unknown-kind"),
    pytest.param(["scan", "--threads", "0"], "argument --threads: must be >= 1",
                 id="threads-0"),
])
def test_bad_command_line_exits_1(tmp_path, capsys, argv, message):
    # argparse's usage errors exit 1 here: 2 is kept for numerical failures.
    path = _write(tmp_path, "scan.json", _scan_config())
    assert main(argv + ["--config", path]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_flag_out_of_range_is_a_config_error(tmp_path, capsys, seed):
    path = _write(tmp_path, "scan.json", _scan_config())
    assert main(["scan", "--config", path, "--seed", seed]) == 1
    assert capsys.readouterr().err == "config error: seed: must be an unsigned 64-bit integer\n"

@pytest.mark.parametrize("where", ["flag", "key"])
@pytest.mark.parametrize("target", ["missing", "directory", "empty"])
def test_out_destination_checked_before_computing(tmp_path, capsys, monkeypatch,
                                                  where, target):
    monkeypatch.setattr(cli, "run_experiment", _refuse_to_compute)
    out = {"missing": str(tmp_path / "missing" / "t.csv"), "directory": str(tmp_path),
           "empty": ""}[target]
    cfg = _scan_config(out=out) if where == "key" else _scan_config()
    argv = ["scan", "--config", _write(tmp_path, "scan.json", cfg)]
    assert main(argv + (["--out", out] if where == "flag" else [])) == 1
    assert capsys.readouterr().err.startswith("config error: out: ")


@pytest.mark.parametrize("out", ["gone/t.csv", "t\0.csv"])
def test_failed_final_write_exits_1(tmp_path, capsys, monkeypatch, out):
    # The destination passes the early check, then the write itself fails:
    # its folder vanished during the run, or the path holds a NUL.
    (tmp_path / "gone").mkdir()

    def run_then_remove_folder(cfg):
        (tmp_path / "gone").rmdir()
        return "table\n", False

    monkeypatch.setattr(cli, "run_experiment", run_then_remove_folder)
    path = _write(tmp_path, "scan.json", _scan_config())
    assert main(["scan", "--config", path, "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("config error: out: ")


@pytest.mark.parametrize("content", [b'{"experiment": "scan\xff"}', b"[" * 200_000],
                         ids=["non-utf-8", "deep-nesting"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["scan", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {path} ")


# A valid simulate config: no other subcommand accepts it (experiment key,
# empty grid), and one point at a small Omega0 takes milliseconds.
_SMALL = json.dumps({"experiment": "simulate", "grid": [],
                     "pulse": {"shape": "sin2", "omega0": 3.0},
                     "tolerance": {"rtol": 1e-6, "atol": 1e-8}}).encode()


@st.composite
def _config_bytes(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    i = draw(st.integers(0, len(_SMALL)))
    j = draw(st.integers(i, min(i + 8, len(_SMALL))))
    return _SMALL[:i] + draw(st.binary(max_size=8)) + _SMALL[j:]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_config_bytes())
def test_main_never_raises_on_arbitrary_config_bytes(tmp_path, capsys, content):
    path = tmp_path / "any.json"
    path.write_bytes(content)
    outs = ([], ["--out", str(tmp_path / "missing" / "t.csv")], ["--out", str(tmp_path)])
    for kind in EXPERIMENTS:
        for out in outs:
            assert main([kind, "--config", str(path)] + out) in (0, 1, 2)
    capsys.readouterr()


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # The reader of the table is gone before it is written, as in
    # `cstirap simulate --config small.json | true`.
    path = tmp_path / "small.json"
    path.write_bytes(_SMALL)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-m", "cstirap.cli", "simulate", "--config", str(path)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as run:
        run.stdout.close()
        err = run.stderr.read()
        assert run.wait() == 1
    assert err.startswith("config error: out: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_closed_stdout_checked_before_computing(tmp_path, capsys, monkeypatch):
    # Started with file descriptor 1 closed (`cstirap ... >&-`), Python sets
    # sys.stdout to None.
    monkeypatch.setattr(cli, "run_experiment", _refuse_to_compute)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["scan", "--config", _write(tmp_path, "scan.json", _scan_config())]) == 1
    assert capsys.readouterr().err == "config error: out: stdout is closed\n"
