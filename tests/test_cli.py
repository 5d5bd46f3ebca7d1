"""Command line interface: manifests, presets, validation, exit codes."""

import dataclasses
import json
import subprocess
import sys

import pytest

from chainmesh.cli import (EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION,
                           _aggregate, load_manifest, main, resolve_out_dir)
from chainmesh.config import ConfigError, ScenarioConfig
from chainmesh.presets import build_preset, preset_names
from corpus import ARTIFACTS


def write_manifest(path, scenarios, **extra):
    doc = {"scenarios": scenarios}
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


TINY = {"duration_min": 0.5, "issuance_rate": 60.0}


# -- manifest parsing -------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    p = write_manifest(tmp_path / "m.json",
                       [{"label": "a", "seeds": [3, 4], "config": TINY}],
                       out_dir="somewhere")
    man = load_manifest(p)
    assert man.out_dir == "somewhere"
    assert man.scenarios[0].label == "a"
    # one validated config per seed, the manifest's config at that seed
    configs = man.scenarios[0].configs
    assert [cfg.seed for cfg in configs] == [3, 4]
    assert [cfg.duration_min for cfg in configs] == [0.5, 0.5]


def test_manifest_defaults_seeds_to_config_seed(tmp_path):
    p = write_manifest(tmp_path / "m.json",
                       [{"label": "a", "config": dict(TINY, seed=9)}])
    configs = load_manifest(p).scenarios[0].configs
    assert [cfg.seed for cfg in configs] == [9]


@pytest.mark.parametrize("doc", [
    "not json {",
    json.dumps([1, 2]),
    json.dumps({"scenarios": []}),
    json.dumps({"scenarios": [{"label": "a"}], "bogus": 1}),
    json.dumps({"scenarios": [{"label": "a", "extra": 1}]}),
    json.dumps({"scenarios": [{"label": "a/b"}]}),
    json.dumps({"scenarios": [{"label": "a"}, {"label": "a"}]}),
    json.dumps({"scenarios": [{"label": "a"}], "out_dir": 7}),
    # its directory would take the place of the batch summary file
    json.dumps({"scenarios": [{"label": "summary.json"}]}),
    # not UTF-8: once a bare UnicodeDecodeError
    b'\xff\xfe{"scenarios": [{"label": "a"}]}',
])
def test_malformed_manifests_are_rejected(tmp_path, doc):
    p = tmp_path / "m.json"
    p.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    with pytest.raises(ConfigError):
        load_manifest(p)


def test_invalid_scenario_config_is_isolated_not_fatal(tmp_path):
    p = write_manifest(tmp_path / "m.json", [
        {"label": "bad", "config": {"confirm_threshold": 1.7}},
        {"label": "good", "config": TINY},
    ])
    man = load_manifest(p)
    assert man.scenarios[0].error is not None
    assert man.scenarios[1].error is None


def test_bad_seed_lists_are_isolated(tmp_path):
    p = write_manifest(tmp_path / "m.json", [
        {"label": "dup", "seeds": [1, 1], "config": TINY},
        {"label": "empty", "seeds": [], "config": TINY},
    ])
    man = load_manifest(p)
    assert all(s.error is not None for s in man.scenarios)


# -- output directory resolution --------------------------------------------

def test_out_dir_precedence(monkeypatch):
    monkeypatch.setenv("CHAINMESH_OUT", "from-env")
    assert str(resolve_out_dir("flag", "manifest")) == "flag"
    assert str(resolve_out_dir(None, "manifest")) == "manifest"
    assert str(resolve_out_dir(None, None)) == "from-env"
    monkeypatch.delenv("CHAINMESH_OUT")
    assert str(resolve_out_dir(None, None)) == "chainmesh-runs"


def test_env_var_supplies_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CHAINMESH_OUT", str(tmp_path / "env-out"))
    p = write_manifest(tmp_path / "m.json",
                       [{"label": "a", "config": TINY}])
    assert main(["run", str(p), "--quiet"]) == EXIT_OK
    assert (tmp_path / "env-out" / "a" / "seed-000" / "metrics.json").exists()


# -- run verb ---------------------------------------------------------------

def test_run_writes_artifacts_aggregate_and_summary(tmp_path):
    p = write_manifest(tmp_path / "m.json",
                       [{"label": "a", "seeds": [0, 1], "config": TINY}])
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out), "--quiet"]) == EXIT_OK
    for seed in (0, 1):
        for name in ARTIFACTS:
            assert (out / "a" / f"seed-{seed:03d}" / name).exists()
    agg = json.loads((out / "a" / "aggregate.json").read_text())
    assert agg["runs"] == 2
    assert agg["mean"]["conservation_ok"] is True
    assert agg["mean"]["intra_blocks_per_min"] > 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenarios"]["a"]["status"] == "ok"


def test_aggregate_skips_none_and_sums_each_mean_in_run_order():
    reports = [
        {"scenario": "s", "seed": 0, "mean_finality_s": None,
         "conservation_ok": True, "final_tip_pool": 3,
         "confirmation_gini": 1e16,
         "double_spend": {"p_detect": 1.0, "mean_delay_s": 2.0}},
        {"scenario": "s", "seed": 1, "mean_finality_s": 4.0,
         "conservation_ok": False, "final_tip_pool": 4,
         "confirmation_gini": -1e16},
        {"scenario": "s", "seed": 2, "mean_finality_s": 6.0,
         "conservation_ok": True, "final_tip_pool": 5,
         "confirmation_gini": 1.0, "double_spend": {"p_detect": 0.5}},
    ]
    assert _aggregate(reports) == {
        "mean_finality_s": 5.0,         # the None run is left out
        "conservation_ok": False,       # a flag must hold in every run
        "final_tip_pool": 4.0,
        # 1e16 - 1e16 + 1.0 in run order; sorted, the 1.0 is lost
        "confirmation_gini": 1.0 / 3,
        # over the runs that report it, key by key
        "double_spend": {"p_detect": 0.75, "mean_delay_s": 2.0},
    }
    assert sum(sorted([1e16, -1e16, 1.0])) != 1.0


def test_run_isolates_invalid_scenarios_and_exits_one(tmp_path, capsys):
    p = write_manifest(tmp_path / "m.json", [
        {"label": "bad", "config": {"confirm_threshold": 1.7}},
        {"label": "good", "config": TINY},
    ])
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out), "--quiet"]) == \
        EXIT_VALIDATION
    assert "confirm_threshold" in capsys.readouterr().err
    assert (out / "good" / "seed-000" / "metrics.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenarios"]["bad"]["status"] == "failed"
    assert summary["scenarios"]["good"]["status"] == "ok"


def test_mistyped_scenario_is_isolated_and_exits_one(tmp_path, capsys):
    p = write_manifest(tmp_path / "m.json", [
        {"label": "bad", "config": {"chains": "10"}},
        {"label": "good", "config": TINY},
    ])
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out), "--quiet"]) == \
        EXIT_VALIDATION
    assert "chains" in capsys.readouterr().err
    assert (out / "good" / "seed-000" / "metrics.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenarios"]["bad"]["status"] == "failed"
    assert summary["scenarios"]["good"]["status"] == "ok"


def test_validate_rejects_a_mistyped_value(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"chains": "10"}))
    assert main(["validate", str(p)]) == EXIT_VALIDATION
    assert "chains must be of type int" in capsys.readouterr().err


def test_run_rejects_missing_manifest(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err
    p = tmp_path / "m.json"
    p.write_bytes(b"\xff\xfe{}")
    assert main(["run", str(p)]) == EXIT_VALIDATION
    assert f"manifest {p} is not valid JSON" in capsys.readouterr().err


def test_unwritable_out_dir_fails_before_any_run(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")                  # a file where a directory must go
    p = write_manifest(tmp_path / "m.json",
                       [{"label": "a", "config": TINY}])
    code = main(["run", str(p), "--out", str(blocker / "sub"), "--quiet"])
    assert code == EXIT_RUNTIME
    assert "not writable" in capsys.readouterr().err


def test_rerunning_a_manifest_is_byte_identical(tmp_path):
    p = write_manifest(tmp_path / "m.json",
                       [{"label": "a", "seeds": [0], "config": TINY}])
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(p), "--out", str(a), "--quiet"]) == EXIT_OK
    assert main(["run", str(p), "--out", str(b), "--quiet"]) == EXIT_OK
    for rel in (["summary.json"], ["a", "aggregate.json"],
                *[["a", "seed-000", name] for name in ARTIFACTS]):
        fa, fb = a.joinpath(*rel), b.joinpath(*rel)
        assert fa.read_bytes() == fb.read_bytes(), rel


# -- preset verb ------------------------------------------------------------

def test_preset_runs_each_scenario_under_its_own_label(tmp_path):
    out = tmp_path / "out"
    code = main(["preset", "tip-pool-k2", "--out", str(out),
                 "--seeds", "0", "--quiet"])
    assert code == EXIT_OK
    root = out / "tip-pool-k2"
    labels = sorted(d.name for d in root.iterdir() if d.is_dir())
    assert labels == ["k2-spam35", "k2-spam55"]
    for label in labels:
        assert (root / label / "seed-000" / "metrics.json").exists()
        assert (root / label / "aggregate.json").exists()


def test_preset_seed_override(tmp_path):
    out = tmp_path / "out"
    assert main(["preset", "intra-scalability", "--out", str(out),
                 "--seeds", "7", "--quiet"]) == EXIT_OK
    rep = json.loads((out / "intra-scalability" / "chains05" / "seed-007" /
                      "metrics.json").read_text())
    assert rep["seed"] == 7


@pytest.mark.parametrize("seeds", [["0", "0"], ["-1"]])
def test_preset_rejects_a_bad_seed_list_before_writing(tmp_path, capsys,
                                                        seeds):
    out = tmp_path / "out"
    assert main(["preset", "tip-pool-k2", "--out", str(out), "--seeds",
                 *seeds, "--quiet"]) == EXIT_VALIDATION
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_rejects_a_negative_seed_before_any_run(tmp_path):
    p = write_manifest(tmp_path / "m.json",
                       [{"label": "a", "seeds": [0, -1], "config": TINY}])
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out), "--quiet"]) == \
        EXIT_VALIDATION
    assert not (out / "a").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenarios"]["a"]["runs"] == 0


def test_unknown_preset_name_exits_one(capsys):
    assert main(["preset", "nope", "--out", "x"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown preset" in err and "tip-pool-k2" in err


# -- validate verb ----------------------------------------------------------

def test_validate_accepts_a_good_config(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dataclasses.asdict(ScenarioConfig())))
    assert main(["validate", str(p)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out and "committee_size=2" in out


def test_validate_rejects_bad_values_and_missing_files(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"confirm_threshold": 1.7}))
    assert main(["validate", str(p)]) == EXIT_VALIDATION
    p.write_text(json.dumps({"vote_timeout_ms": 500}))
    assert main(["validate", str(p)]) == EXIT_VALIDATION
    assert "vote_timeout_ms" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "absent.json")]) == \
        EXIT_VALIDATION
    p.write_bytes(b"\xff\xfe{}")         # not UTF-8
    assert main(["validate", str(p)]) == EXIT_VALIDATION
    assert f"configuration {p} is not valid JSON" in \
        capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("genesis_balance", 2**63),
                                         ("amount_max", 2**63 - 1)])
def test_int64_sized_values_fail_validation_before_any_run(
        tmp_path, capsys, field, value):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({field: value}))
    assert main(["validate", str(p)]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err
    m = write_manifest(tmp_path / "m.json",
                       [{"label": "a", "config": {**TINY, field: value}}])
    out = tmp_path / "out"
    assert main(["run", str(m), "--out", str(out), "--quiet"]) == \
        EXIT_VALIDATION
    assert field in capsys.readouterr().err
    assert not (out / "a").exists()


# -- preset catalog ---------------------------------------------------------

def test_catalog_names_cover_every_experiment_family():
    assert preset_names() == ("decentralization", "double-spend-k2",
                              "double-spend-k4", "inter-scalability",
                              "inter-throughput", "intra-scalability",
                              "intra-throughput", "tip-pool-k2",
                              "tip-pool-k4")


@pytest.mark.parametrize("paper_scale", [False, True])
def test_every_preset_config_validates(paper_scale):
    for name in preset_names():
        configs = build_preset(name, paper_scale=paper_scale)
        assert configs
        for cfg in configs.values():   # construction validated every field
            assert cfg.chains >= 2


def test_paper_scale_restores_full_fleet_and_accounts():
    desk = build_preset("tip-pool-k2")["k2-spam35"]
    full = build_preset("tip-pool-k2", paper_scale=True)["k2-spam35"]
    assert (desk.fleet_size, desk.accounts) == (20, 100)
    assert (full.fleet_size, full.accounts) == (100, 1000)
    sizes = {label: cfg.fleet_size for label, cfg in
             build_preset("inter-scalability", paper_scale=True).items()}
    assert sizes == {"fleet100": 100, "fleet200": 200}


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "chainmesh.cli", "preset",
                           "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--paper-scale" in proc.stdout
