import json
import os
from collections import Counter
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import helpers
import noma_outage
from helpers import config_dict, ref_check_instance
from noma_outage import cli, decoders
from noma_outage.cli import main, rows_to_csv
from noma_outage.config import DEFAULT_ALGORITHMS, ConfigError, ScenarioConfig, config_from_dict, load_config
from noma_outage.montecarlo import run_sweep
from noma_outage.validation import BLOCK, random_instance, run_validation

SMALL_YAML = dict(
    k_aircraft=4,
    m_antennas=4,
    trials=5,
    algorithms=["SSA", "GSA"],
    r_g_list=[2.0, 5.0],
    master_seed=9,
)


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(SMALL_YAML))
    return path


# ---------------------------------------------------------------------------
# config serialization
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = ScenarioConfig(k_aircraft=7, trials=42, coverage_fraction=0.4)
    path = tmp_path / "round.yaml"
    path.write_text(yaml.safe_dump(config_dict(cfg), sort_keys=False))
    assert load_config(str(path)) == cfg


def test_config_dict_round_trip():
    cfg = ScenarioConfig()
    assert config_from_dict(config_dict(cfg)) == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("k_aircrafts: 4\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_defaults_match_reference_deployment():
    cfg = ScenarioConfig()
    assert cfg.earth_radius_m == 6_371_000.0
    assert cfg.cell_radius_m == 222_000.0
    assert cfg.gs_height_m == 500.0
    assert cfg.aircraft_altitude_m == 10_000.0
    assert cfg.min_separation_m == 10_000.0
    assert cfg.carrier_hz == 987e6
    assert cfg.tx_power_dbm == 41.0
    assert cfg.noise_power_dbm == -107.0
    assert cfg.m_antennas == 64
    assert cfg.coverage_fraction == 0.5
    assert cfg.ground.eps_r == 3.0


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_sweep_writes_expected_csv(small_config, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(small_config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,K,r_G,rate_mode,p_out,stderr,trials,avg_mults,master_seed"
    assert len(lines) == 1 + 2 * 2  # two algorithms x two rates
    cols = [line.split(",") for line in lines[1:]]
    assert [c[0] for c in cols] == sorted(c[0] for c in cols)
    for c in cols:
        assert c[1] == "4" and c[3] == "equal_rate" and c[6] == "5" and c[8] == "9"
        assert 0.0 <= float(c[4]) <= 1.0


def test_sweep_byte_identical_across_runs_and_threads(small_config, tmp_path):
    out1, out2, out3 = (tmp_path / f"o{i}.csv" for i in range(3))
    assert main(["sweep", "--config", str(small_config), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(small_config), "--out", str(out2)]) == 0
    assert main(["sweep", "--config", str(small_config), "--out", str(out3), "--threads", "2"]) == 0
    b1, b2, b3 = out1.read_bytes(), out2.read_bytes(), out3.read_bytes()
    assert b1 == b2 == b3


def test_sweep_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("m_antennas: 5\n")  # not a perfect square
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("threads", "2"),
        ("trials", 1.5),
        ("k_aircraft", 4.0),
        ("master_seed", -3),
        ("trials", True),
        ("k_list", [4, 8.5]),
        ("freeze_reflector_map", 1),
        ("ground", {"eps_r": "3"}),
        # NaN and infinity, at the top level, in a list and in a nested block
        ("tx_power_dbm", float("inf")),
        ("cell_radius_m", float("nan")),
        ("r_g_list", [2.0, float("nan")]),
        ("ground", {"sigma_sm": float("-inf")}),
    ],
)
def test_sweep_rejects_ill_typed_or_negative_config(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({**SMALL_YAML, field: value}))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 1
    assert f"config error: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_negative_seed(small_config, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(small_config), "--out", str(out), "--seed", "-1"]) == 1
    assert "config error: master_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_empty_algorithm_list(small_config, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(small_config), "--out", str(out), "--algorithms", ","]) == 1
    assert "config error: algorithms must name at least one algorithm" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_runtime_failure_exit_code(small_config, tmp_path, monkeypatch, capsys):
    def failing_sweep(cfg):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(cli, "run_sweep", failing_sweep)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(small_config), "--out", str(out)]) == 2
    assert "runtime failure: trial failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("parent", ["no/such/dir", "file.txt"])
def test_sweep_unwritable_out_fails_before_the_first_trial(tmp_path, monkeypatch, capsys, parent):
    # a missing output directory, or a file where it should be, is a
    # configuration error found before any trial runs
    def no_sweep(cfg):
        raise AssertionError("run_sweep called")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    (tmp_path / "file.txt").write_text("")
    out = tmp_path / parent / "x.csv"
    assert main(["sweep", "--preset", "paper-fig5", "--trials", "2", "--out", str(out)]) == 1
    assert "config error: output directory" in capsys.readouterr().err


def test_sweep_overrides_trials_and_seed(small_config, tmp_path):
    out = tmp_path / "o.csv"
    code = main(
        [
            "sweep",
            "--config",
            str(small_config),
            "--out",
            str(out),
            "--trials",
            "3",
            "--seed",
            "123",
            "--algorithms",
            "SSA",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 2 rates, single algorithm
    assert all(line.split(",")[6] == "3" and line.split(",")[8] == "123" for line in lines[1:])


def test_sweep_unknown_flag_is_usage_error(small_config, tmp_path, capsys):
    # an LGSA group-size limit is set in its token (LGSA:3), not by a flag
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(small_config), "--out", str(out),
              "--algorithms", "SSA,LGSA", "--vmax", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --vmax 3" in capsys.readouterr().err
    assert not out.exists()


def test_preset_fig4_grid(tmp_path):
    out = tmp_path / "fig4.csv"
    code = main(
        ["sweep", "--preset", "paper-fig4", "--out", str(out),
         "--trials", "1", "--algorithms", "SSA", "--seed", "1"]
    )
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    r_values = [float(line.split(",")[2]) for line in lines]
    assert r_values == [float(r) for r in range(1, 16)]
    assert all(line.split(",")[1] == "32" for line in lines)


@pytest.mark.parametrize("preset, trials", [("paper-fig4", 2), ("paper-fig5", 3)])
@pytest.mark.parametrize("threads", [1, 2])
def test_preset_sweep_matches_golden_csv(preset, trials, threads, tmp_path):
    out = tmp_path / "out.csv"
    code = main(
        ["sweep", "--preset", preset, "--trials", str(trials), "--seed", "0",
         "--threads", str(threads), "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / f"{preset}.csv").read_bytes()


def test_sweep_single_trial_single_aircraft_binary_outage(tmp_path):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(
        yaml.safe_dump(
            dict(k_aircraft=1, m_antennas=4, trials=1, algorithms=["GSA"], r_g_list=[1.0, 30.0])
        )
    )
    out = tmp_path / "tiny.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 2
    assert all(float(line.split(",")[4]) in (0.0, 1.0) for line in lines)


def test_csv_float_formatting():
    rows = run_sweep(
        ScenarioConfig(
            k_aircraft=3, m_antennas=4, trials=3, algorithms=("SSA",), r_g_list=(3.0,)
        )
    )
    text = rows_to_csv(rows)
    payload = text.splitlines()[1].split(",")
    assert len(payload) == 9
    for field in (payload[4], payload[5], payload[7]):
        assert len(field.replace(".", "").replace("-", "").replace("e", "").lstrip("0")) <= 7


# ---------------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------------

def test_validate_passes_on_correct_build(capsys):
    assert main(["validate", "--seed", "3", "--instances", "40"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_validate_detects_injected_fault(capsys):
    code = main(["validate", "--seed", "3", "--instances", "40", "--epsilon", "-0.1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "FAIL" in err
    payload = json.loads(err.strip().splitlines()[-1])
    assert {"seed", "h_re", "h_im", "r", "kind"} <= set(payload)


def test_validate_rejects_zero_instances(capsys):
    assert main(["validate", "--instances", "0"]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_rejects_negative_seed(capsys):
    assert main(["validate", "--seed", "-1", "--instances", "5"]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "--seed >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_validate_rejects_non_finite_epsilon(capsys, epsilon):
    assert main(["validate", "--instances", "5", f"--epsilon={epsilon}"]) == 1
    captured = capsys.readouterr()
    assert "config error: --epsilon must be finite" in captured.err
    assert captured.out == ""


def test_validate_runs_gsa_once_per_instance(monkeypatch):
    # GSA runs in the one pass of the nested decoders, with SSA, LGSA:2 and
    # LGSA:4, from the instance's front; the fronts and ISU of a block are
    # one kernel call
    kernel, runs = [], []
    one_at_a_time, from_front = decoders.one_at_a_time, decoders.from_front

    def counted_one_at_a_time(evs, problems, eps=0.0):
        kernel.append([(len(evs), e, order) for e, _, order in problems])
        return one_at_a_time(evs, problems, eps)

    def counted_from_front(ev, r, front, limits, eps=0.0):
        runs.append(tuple(limits) == (0, ev.k, 2, 4))
        return from_front(ev, r, front, limits, eps)

    monkeypatch.setattr(decoders, "one_at_a_time", counted_one_at_a_time)
    monkeypatch.setattr(decoders, "from_front", counted_from_front)
    starts = helpers.watch_run_starts(monkeypatch)
    report = run_validation(seed=3, instances=BLOCK + 20)
    assert report.passed
    assert sum(report.decoded_histogram.values()) == BLOCK + 20
    assert kernel == [[(n, i, order) for order in (decoders.ISU, decoders.GREEDY) for i in range(n)]
                      for n in (BLOCK, 20)]
    assert runs == [True] * (BLOCK + 20)
    assert starts == []


def test_random_instance_draws_m_as_choice_did():
    # M is drawn with ``integers``, which takes the stream ``choice`` did
    for seed in (0, 4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            for got, want in zip(random_instance(rng), helpers.ref_random_instance(ref)):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.05])
def test_validation_blocks_match_one_instance_at_a_time(eps):
    # a run's instances are the first ones of any longer run from its seed,
    # so one reference loop over the longest serves every count
    counts = (1, BLOCK - 1, BLOCK, BLOCK + 1)
    rng = np.random.default_rng(4)
    drawn = [random_instance(rng) for _ in range(max(counts))]
    ref = [ref_check_instance(h, r, gamma, eps) for h, r, gamma in drawn]
    assert any(problems for problems, _ in ref) == (eps != 0.0)
    for n in counts:
        report = run_validation(seed=4, instances=n, mutation_eps=eps)
        got = [(v.index, v.kind, v.detail, v.r) for v in report.violations]
        want = [(i, kind, detail, list(map(float, drawn[i][1])))
                for i, (problems, _) in enumerate(ref[:n]) for kind, detail in problems]
        assert got == want
        buckets = ["all" if n_dec == h.shape[1] else "none" if n_dec == 0 else "partial"
                   for (h, _, _), (_, n_dec) in zip(drawn[:n], ref)]
        assert report.decoded_histogram == dict(Counter(buckets))


# ---------------------------------------------------------------------------
# complexity command
# ---------------------------------------------------------------------------

def test_complexity_table(capsys):
    assert main(["complexity", "--K", "1", "2", "32"]) == 0
    out = capsys.readouterr().out
    assert "1,1" in out
    assert "2,5" in out
    assert "32,1853015893884545" in out


def test_complexity_rejects_large_k(capsys):
    assert main(["complexity", "--K", "65"]) == 1


# ---------------------------------------------------------------------------
# package import
# ---------------------------------------------------------------------------

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user_value", [None, "3"])
def test_import_pins_blas_threads_unless_set(user_value):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    env["PYTHONPATH"] = str(Path(noma_outage.__file__).parents[1])
    code = "import os, noma_outage; print(*(os.environ[v] for v in %r))" % (BLAS_THREAD_VARS,)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [user_value or "1", "1", "1"]


def test_import_leaves_yaml_unloaded():
    # only load_config reads YAML, so a launch without --config never loads it
    env = {**os.environ, "PYTHONPATH": str(Path(noma_outage.__file__).parents[1])}
    code = "import sys, noma_outage.cli; print('yaml' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


# ---------------------------------------------------------------------------
# traced launch: the benchmark's tracer wraps functions by module and name
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]


def _traced_launch(tmp_path, *cli_args):
    res, trace = tmp_path / "res.json", tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    subprocess.run(
        [sys.executable, "perfbench/launch.py", str(res), str(trace), "-", *cli_args],
        cwd=REPO, env=env, check=True, timeout=300,
    )
    return json.loads(res.read_text())["rc"], {span[0] for span in json.loads(trace.read_text())["spans"]}


def test_traced_sweep_records_every_layer(tmp_path):
    rc, names = _traced_launch(
        tmp_path, "sweep", "--preset", "paper-fig5", "--trials", "1", "--out", str(tmp_path / "x.csv")
    )
    assert rc == 0
    want = {"montecarlo.build_trial_channel", "geometry.placement", "geometry.map",
            "geometry.specular", "channel.matrix", "decoders.vblast_order"}
    assert want | {"alg:" + tok for tok in DEFAULT_ALGORITHMS} <= names


def test_traced_validate_records_oracles(tmp_path):
    rc, names = _traced_launch(tmp_path, "validate", "--instances", "5")
    assert rc == 0
    assert {"validation.run_validation", "decoders.oracle_max_set", "decoders.oracle_best_sic"} <= names
