"""Command line front end: run manifests, built-in presets, config checks.

Verbs:
  run <manifest.json>       run every scenario x seed in a manifest
  preset <name>             run one built-in preset
  validate <config.json>    check a scenario config and report derived values

Exit codes: 0 success, 1 validation failure, 2 runtime failure. The default
output directory comes from --out, then the manifest, then $CHAINMESH_OUT,
then ./chainmesh-runs. Each scenario holds one validated config per seed,
built once as it is loaded, and the batch runs those configs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .config import (ConfigError, ScenarioConfig, config_from_mapping,
                     known_fields, load_config, read_json, replace)
from .engine import run_scenario
from .metrics import write_json
from .presets import DEFAULT_SEEDS, build_preset, preset_names

ENV_OUT = "CHAINMESH_OUT"
DEFAULT_OUT = "chainmesh-runs"
SUMMARY = "summary.json"            # the batch summary, beside the labels

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


@dataclass(frozen=True)
class ManifestScenario:
    label: str
    configs: tuple[ScenarioConfig, ...]     # validated, one per listed seed
    error: str | None = None        # validation failure captured at load time


@dataclass(frozen=True)
class RunManifest:
    scenarios: tuple[ManifestScenario, ...]
    out_dir: str | None = None


def _scenario(label: str, cfg: ScenarioConfig,
              seeds: object) -> ManifestScenario:
    """A scenario of `cfg` at each seed of a non-empty list of distinct
    integers, each config validated as it is built."""
    if (not isinstance(seeds, list) or not seeds
            or any(not isinstance(s, int) or isinstance(s, bool)
                   for s in seeds)
            or len(set(seeds)) != len(seeds)):
        raise ConfigError(f"scenario {label!r}: 'seeds' must be a "
                          "non-empty list of distinct integers")
    return ManifestScenario(label, tuple(replace(cfg, seed=s) for s in seeds))


def load_manifest(path: str | Path) -> RunManifest:
    """Parse and validate a batch manifest document."""
    raw = known_fields(read_json(path, "manifest"), {"scenarios", "out_dir"},
                       "manifest")
    entries = raw.get("scenarios")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("manifest needs a non-empty 'scenarios' list")
    scenarios = []
    labels: set[str] = set()
    for i, entry in enumerate(entries):
        entry = known_fields(entry, {"label", "seeds", "config"},
                             f"scenario #{i}")
        label = entry.get("label")
        if not isinstance(label, str) or not label or "/" in label \
                or label.startswith("."):
            raise ConfigError(f"scenario #{i} needs a plain 'label' string")
        if label == SUMMARY:
            raise ConfigError(f"scenario label {label!r} names the summary")
        if label in labels:
            raise ConfigError(f"duplicate scenario label {label!r}")
        labels.add(label)
        # a scenario that fails validation is carried as a failure record so
        # the rest of the batch still runs
        try:
            cfg = config_from_mapping(entry.get("config", {}))
            scenarios.append(_scenario(label, cfg,
                                       entry.get("seeds", [cfg.seed])))
        except ConfigError as exc:
            scenarios.append(ManifestScenario(label=label, configs=(),
                                              error=str(exc)))
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("'out_dir' must be a string path")
    return RunManifest(scenarios=tuple(scenarios), out_dir=out_dir)


def resolve_out_dir(flag_value: str | None,
                    manifest_value: str | None = None) -> Path:
    return Path(flag_value or manifest_value or os.environ.get(ENV_OUT)
                or DEFAULT_OUT)


def _ensure_writable(out: Path) -> None:
    """Fail before any run if the output directory cannot be written."""
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write-probe"
    probe.write_text("")
    probe.unlink()


def _aggregate(reports: Sequence[Mapping]) -> dict:
    """Each metric over a scenario's seed runs, skipping the runs that
    report None: a flag holds if it holds in every run, a mapping is
    aggregated key by key, and a number is its mean, summed in run order."""
    out: dict = {}
    for key in dict.fromkeys(key for rep in reports for key in rep):
        values = [rep[key] for rep in reports if rep.get(key) is not None]
        if key in ("scenario", "seed") or not values:
            continue
        if isinstance(values[0], bool):
            out[key] = all(values)
        elif isinstance(values[0], Mapping):
            out[key] = _aggregate(values)
        elif isinstance(values[0], (int, float)):
            out[key] = sum(map(float, values)) / len(values)
    return out


def run_batch(scenarios: Sequence[ManifestScenario], out: Path,
              quiet: bool = False) -> int:
    """Run every (scenario, seed), write artifacts and aggregates.

    Scenario failures are isolated: the batch continues and the exit code
    reports the worst failure seen.
    """
    try:
        _ensure_writable(out)
    except OSError as exc:
        print(f"error: output directory {out} is not writable: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME
    worst = EXIT_OK
    summary: dict[str, dict] = {}
    for scen in scenarios:
        reports = []
        error: str | None = None
        if scen.error is not None:      # it has no configs to run
            error = f"validation: {scen.error}"
            worst = max(worst, EXIT_VALIDATION)
            print(f"error: {scen.label}: {error}", file=sys.stderr)
        for cfg in scen.configs:
            # `_scenario` validated each config: a run fails only at run time
            try:
                result = run_scenario(
                    cfg, scen.label, out / scen.label / f"seed-{cfg.seed:03d}")
            except Exception as exc:            # isolate, keep the batch going
                error = f"runtime: {exc}"
                worst = max(worst, EXIT_RUNTIME)
                print(f"error: {scen.label} seed={cfg.seed}: {error}",
                      file=sys.stderr)
                break
            rep = result.report.to_mapping()
            reports.append(rep)
            if not quiet:
                gini = rep["confirmation_gini"]
                print(f"{scen.label} seed={cfg.seed}: "
                      f"intra={rep['intra_blocks_per_min']:.1f}/min "
                      f"inter={rep['inter_blocks_per_min']:.1f}/min "
                      f"finality={rep['mean_finality_s'] or 0:.1f}s "
                      f"pool={rep['final_tip_pool']} "
                      f"gini={'n/a' if gini is None else format(gini, '.3f')} "
                      f"conserved={rep['conservation_ok']}")
        if reports:
            agg = {"label": scen.label,
                   "seeds": [cfg.seed for cfg in scen.configs[:len(reports)]],
                   "runs": len(reports),
                   "mean": _aggregate(reports)}
            (out / scen.label).mkdir(parents=True, exist_ok=True)
            write_json(out / scen.label / "aggregate.json", agg)
        summary[scen.label] = {
            "runs": len(reports),
            "status": "ok" if error is None else "failed",
            "error": error,
        }
    write_json(out / SUMMARY, {"scenarios": summary})
    return worst


# -- verbs ------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    out = resolve_out_dir(args.out, manifest.out_dir)
    return run_batch(manifest.scenarios, out, quiet=args.quiet)


def cmd_preset(args: argparse.Namespace) -> int:
    seeds = args.seeds or list(DEFAULT_SEEDS)
    scenarios = [_scenario(label, cfg, seeds) for label, cfg in
                 build_preset(args.name, args.paper_scale).items()]
    out = resolve_out_dir(args.out) / args.name
    return run_batch(scenarios, out, quiet=args.quiet)


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    print(f"ok: {args.config}")
    print(f"  chains={cfg.chains} fleet={cfg.fleet_size} "
          f"accounts={cfg.accounts} tip_sample={cfg.tip_sample}")
    print(f"  committee_size={cfg.committee_size()} "
          f"critical_spam={cfg.orphanage_critical_spam():.3f} "
          f"adversarial={list(cfg.adversarial_chains())}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainmesh",
        description="Deterministic multi-chain ledger simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every scenario in a manifest")
    p_run.add_argument("manifest", help="path to a batch manifest JSON file")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-run progress lines")
    p_run.set_defaults(func=cmd_run)

    p_preset = sub.add_parser("preset", help="run a built-in preset")
    p_preset.add_argument("name",
                          help="preset name: " + ", ".join(preset_names()))
    p_preset.add_argument("--out", help="output directory")
    p_preset.add_argument("--paper-scale", action="store_true",
                          help="full fleet and account sizes instead of "
                               "desk scale")
    p_preset.add_argument("--seeds", type=int, nargs="+",
                          help="override the default seed list")
    p_preset.add_argument("--quiet", action="store_true",
                          help="suppress per-run progress lines")
    p_preset.set_defaults(func=cmd_preset)

    p_val = sub.add_parser("validate", help="check a scenario config file")
    p_val.add_argument("config", help="path to a scenario config JSON file")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:          # every verb's one validation exit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
