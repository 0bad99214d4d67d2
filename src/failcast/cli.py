"""Command-line frontend for the failure-prediction pipeline.

Subcommands: generate, assemble, train, evaluate, prune, report.  Every
flag can also come from a JSON ``--config`` file; explicit flags override
config values, which override built-in defaults.  Each run writes its
fully resolved configuration next to its outputs.

Exit codes: 0 success, 1 structural or runtime failure, 2 data-validation
violations (outputs are still written), 3 fold-construction or fit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, assemble, evaluate, ingest, logreg, report, synth
from .ingest import BUNDLE_FILENAMES

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VIOLATIONS = 2
EXIT_FIT = 3

RUN_CONFIG = "run_config.json"

_INPUT_DEFAULTS = {
    "in_dir": None,
    "telemetry": None,
    "errors": None,
    "maintenance": None,
    "failures": None,
    "machines": None,
}

_FIT_DEFAULTS = {
    "weight": 100.0,
    "l2": 1.0,
    "tolerance": 1e-8,
    "max_iterations": 100,
    "solver": "newton",
}

_EVAL_DEFAULTS = {
    **_INPUT_DEFAULTS,
    "out_dir": None,
    "horizon": 24,
    "label_window": False,
    **_FIT_DEFAULTS,
    "threshold": 0.5,
    "folds": 3,
    "seed": 0,
}

DEFAULTS = {
    "generate": {
        "out_dir": None,
        "machines": 100,
        "days": 365,
        "seed": 0,
        "failure_rate": 0.017,
        "signal": 50.0,
        "error_rate": 0.005,
        "maintenance_rate": 0.002,
        "drift": False,
    },
    "assemble": {**_INPUT_DEFAULTS, "out": None, "horizon": 24,
                 "label_window": False},
    "train": {**_INPUT_DEFAULTS, "out": None, "horizon": 24,
              "label_window": False, **_FIT_DEFAULTS},
    "evaluate": dict(_EVAL_DEFAULTS),
    "prune": {**_EVAL_DEFAULTS, "rule": "relative", "prune_threshold": 0.10,
              "preset": None},
    "report": {"bundle": None},
}


def _add_input_flags(sub):
    sub.add_argument("--in-dir", dest="in_dir",
                     help="directory holding the five conventional CSVs")
    for key in BUNDLE_FILENAMES:
        sub.add_argument(f"--{key}", dest=key,
                         help=f"path to the {key} CSV (overrides --in-dir)")


def _add_horizon_flags(sub):
    sub.add_argument("--horizon", type=int, help="label lead time in hours")
    sub.add_argument("--label-window", dest="label_window", action="store_true",
                     help="label failures anywhere within the horizon, "
                          "not only at exactly t + horizon")


def _add_fit_flags(sub):
    sub.add_argument("--weight", type=float,
                     help="sample weight for failure rows (non-failures get 1)")
    sub.add_argument("--l2", type=float, help="L2 penalty strength on slopes")
    sub.add_argument("--tolerance", type=float,
                     help="gradient max-norm stopping tolerance")
    sub.add_argument("--max-iterations", dest="max_iterations", type=int)
    sub.add_argument("--solver", choices=logreg.SOLVERS)


def _add_eval_flags(sub):
    _add_input_flags(sub)
    sub.add_argument("--out-dir", dest="out_dir", help="report bundle directory")
    _add_horizon_flags(sub)
    _add_fit_flags(sub)
    sub.add_argument("--threshold", type=float, help="decision threshold")
    sub.add_argument("--folds", type=int, help="number of cross-validation folds")
    sub.add_argument("--seed", type=int, help="machine-shuffle seed for folds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failcast",
        description="Hourly machine-state assembly and 24h-ahead failure "
                    "prediction with weighted logistic regression.")
    parser.add_argument("--version", action="version",
                        version=f"failcast {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text):
        sub = subs.add_parser(name, help=help_text,
                              argument_default=argparse.SUPPRESS)
        sub.add_argument("--config",
                         help="JSON file of flag values (explicit flags win)")
        return sub

    gen = add("generate", "write a seeded synthetic five-CSV dataset")
    gen.add_argument("--out-dir", dest="out_dir", help="output directory")
    gen.add_argument("--machines", type=int, help="number of machines")
    gen.add_argument("--days", type=int, help="number of simulated days")
    gen.add_argument("--seed", type=int, help="generator seed")
    gen.add_argument("--failure-rate", dest="failure_rate", type=float,
                     help="target per-hour failure probability")
    gen.add_argument("--signal", type=float,
                     help="odds ratio of error-driven to background failures")
    gen.add_argument("--error-rate", dest="error_rate", type=float,
                     help="per-flag per-hour error probability")
    gen.add_argument("--maintenance-rate", dest="maintenance_rate", type=float,
                     help="per-hour scheduled maintenance probability")
    gen.add_argument("--drift", action="store_true",
                     help="add a telemetry ramp in the day before failures")

    asm = add("assemble", "join the five CSVs into a labeled hourly stream")
    _add_input_flags(asm)
    asm.add_argument("--out", help="output stream CSV path")
    _add_horizon_flags(asm)

    trn = add("train", "fit one weighted model on the full stream")
    _add_input_flags(trn)
    trn.add_argument("--out", help="output model file path")
    _add_horizon_flags(trn)
    _add_fit_flags(trn)

    ev = add("evaluate", "machine-disjoint temporal cross-validation report")
    _add_eval_flags(ev)

    pr = add("prune", "evaluate, prune weak features, re-evaluate reduced set")
    _add_eval_flags(pr)
    pr.add_argument("--rule", choices=evaluate.PRUNE_RULES,
                    help="pruning rule for the reduced run")
    pr.add_argument("--prune-threshold", dest="prune_threshold", type=float,
                    help="relative-magnitude cutoff for rule 'relative'")
    pr.add_argument("--preset", choices=["paper-reduced"],
                    help="fixed feature preset (overrides --rule)")

    rep = add("report", "re-render summary/CSV/SVG artifacts from report.json")
    rep.add_argument("--bundle", help="report bundle directory")
    return parser


def _resolve(subcommand: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    defaults = DEFAULTS[subcommand]
    explicit = {k: v for k, v in vars(args).items() if k != "subcommand"}
    config_path = explicit.pop("config", None)
    cfg = dict(defaults)
    if config_path is not None:
        with open(config_path) as handle:
            file_cfg = json.load(handle)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys for {subcommand}: {unknown}")
        # argparse has no public accessor for a parser's actions.
        sub = next(a.choices[subcommand] for a in build_parser()._actions if a.choices)
        actions = {a.dest: a for a in sub._actions}
        for key, value in file_cfg.items():
            if not (value is None and defaults[key] is None):
                _check_config_value(key, value, actions[key])
        cfg.update(file_cfg)
    cfg.update(explicit)
    return cfg


def _check_config_value(key, value, action):
    """Reject a config-file value that the key's own flag could not yield."""
    if action.nargs == 0:  # store_true
        expected = bool
        valid = isinstance(value, bool)
    else:
        expected = action.type or str
        kinds = (int, float) if expected is float else expected
        valid = isinstance(value, kinds) and not isinstance(value, bool)
    if valid and action.choices is not None:
        valid = value in action.choices
    if not valid:
        allowed = f" in {list(action.choices)}" if action.choices else ""
        raise ValueError(f"config key {key!r}: {action.option_strings[0]} takes "
                         f"{expected.__name__} values{allowed}, got {value!r}")


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")


def _input_paths(cfg: dict) -> dict:
    paths = {}
    for key, filename in BUNDLE_FILENAMES.items():
        if cfg.get(key) is not None:
            paths[key] = cfg[key]
        elif cfg.get("in_dir") is not None:
            paths[key] = os.path.join(cfg["in_dir"], filename)
        else:
            raise ValueError(f"missing input: pass --in-dir or --{key}")
    return paths


def _report_violations(violations):
    for v in violations:
        print(f"violation [{v.dataset} row {v.row_index}]: {v.message}",
              file=sys.stderr)
    if violations:
        print(f"{len(violations)} validation violation(s); continuing",
              file=sys.stderr)


def _config_payload(command: str, cfg: dict) -> dict:
    return {"version": __version__, "command": command,
            "config": dict(sorted(cfg.items()))}


def _write_json(path, payload: dict):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sibling_config_path(out_path: str) -> str:
    return os.path.splitext(out_path)[0] + ".config.json"


def _horizon(cfg: dict) -> assemble.HorizonConfig:
    return assemble.HorizonConfig(horizon_hours=cfg["horizon"],
                                  window=cfg["label_window"])


def _fit_config(cfg: dict) -> logreg.FitConfig:
    return logreg.FitConfig(l2_strength=cfg["l2"], tolerance=cfg["tolerance"],
                            max_iterations=cfg["max_iterations"],
                            solver=cfg["solver"])


def cmd_generate(args) -> int:
    cfg = _resolve("generate", args)
    _require(cfg, "out_dir")
    config = synth.SynthConfig(
        n_machines=cfg["machines"], n_days=cfg["days"], seed=cfg["seed"],
        target_failure_rate=cfg["failure_rate"], signal_strength=cfg["signal"],
        per_flag_error_rate=cfg["error_rate"],
        scheduled_maintenance_rate=cfg["maintenance_rate"],
        telemetry_drift=cfg["drift"])
    bundle = synth.generate(config)
    ingest.write_bundle(bundle, cfg["out_dir"])
    _write_json(os.path.join(cfg["out_dir"], RUN_CONFIG),
                _config_payload("generate", cfg))
    print(f"wrote {cfg['machines']} machines x {cfg['days']} days "
          f"({len(bundle.failures)} failures) to {cfg['out_dir']}")
    return EXIT_OK


def cmd_assemble(args) -> int:
    cfg = _resolve("assemble", args)
    _require(cfg, "out")
    bundle, violations = ingest.load_bundle(**_input_paths(cfg))
    _report_violations(violations)
    rows = assemble.build_event_stream(bundle, _horizon(cfg))
    ingest.write_csv(cfg["out"], rows)
    _write_json(_sibling_config_path(cfg["out"]),
                _config_payload("assemble", cfg))
    positives = int(rows.label.sum())
    print(f"wrote {len(rows)} rows ({positives} labeled failures) to {cfg['out']}")
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve("train", args)
    _require(cfg, "out")
    bundle, violations = ingest.load_bundle(**_input_paths(cfg))
    _report_violations(violations)
    rows = assemble.build_event_stream(bundle, _horizon(cfg))
    data = assemble.encode(rows, weight_positive=cfg["weight"])
    model = logreg.fit(data, _fit_config(cfg))
    logreg.save_model(model, cfg["out"])
    _write_json(_sibling_config_path(cfg["out"]), _config_payload("train", cfg))
    meta = model.fit_meta
    print(f"fit {len(rows)} rows in {meta.iterations} iterations "
          f"(objective {meta.final_objective:.6f}); model saved to {cfg['out']}")
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _run_cv(command: str, cfg: dict, rule: str, rule_threshold: float) -> int:
    _require(cfg, "out_dir")
    paths = _input_paths(cfg)
    bundle, violations = ingest.load_bundle(**paths)
    _report_violations(violations)
    horizon = _horizon(cfg)
    rows = assemble.build_event_stream(bundle, horizon)
    folds = evaluate.make_folds(rows, k=cfg["folds"], seed=cfg["seed"])
    fit_config = _fit_config(cfg)
    full = evaluate.evaluate_cv(rows, folds, fit_config, cfg["weight"],
                                cfg["threshold"])
    reduced_names = evaluate.prune_features(full.weight_report, rule=rule,
                                            threshold=rule_threshold)
    reduced = evaluate.evaluate_cv(rows, folds, fit_config, cfg["weight"],
                                   cfg["threshold"], features=reduced_names)
    full_names = full.fold_results[0].model.encoding.feature_names
    payload = {
        "version": __version__,
        "command": command,
        "config": dict(sorted(cfg.items())),
        "dataset_digest": report.dataset_digest(paths),
        "label_semantics": horizon.label_semantics,
        "pruning_rule": rule,
        "runs": {
            "full": report.cv_payload(full, full_names),
            "reduced": report.cv_payload(reduced, reduced_names),
        },
    }
    report.write_bundle(cfg["out_dir"], payload)
    _write_json(os.path.join(cfg["out_dir"], RUN_CONFIG),
                _config_payload(command, cfg))
    print(f"average failure recall: full {full.average_failure_recall:.4f}, "
          f"reduced ({len(reduced_names)} features) "
          f"{reduced.average_failure_recall:.4f}")
    print(f"report bundle written to {cfg['out_dir']}")
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _resolve("evaluate", args)
    return _run_cv("evaluate", cfg, "paper-reduced", 0.10)


def cmd_prune(args) -> int:
    cfg = _resolve("prune", args)
    rule = cfg["preset"] if cfg.get("preset") else cfg["rule"]
    return _run_cv("prune", cfg, rule, cfg["prune_threshold"])


def cmd_report(args) -> int:
    cfg = _resolve("report", args)
    _require(cfg, "bundle")
    payload = report.load_bundle_payload(cfg["bundle"])
    report.render(cfg["bundle"], payload)
    print(f"re-rendered artifacts in {cfg['bundle']}")
    return EXIT_OK


_HANDLERS = {
    "generate": cmd_generate,
    "assemble": cmd_assemble,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "prune": cmd_prune,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except (evaluate.FoldError, logreg.FitError,
            logreg.UnfittableDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (ingest.IngestError, assemble.AssembleError, assemble.EncodingError,
            evaluate.PruneError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
