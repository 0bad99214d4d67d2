"""Command-line frontend for the failure-prediction pipeline.

Subcommands: generate, assemble, train, evaluate, prune, report.  Every
flag can also come from a JSON ``--config`` file; explicit flags override
config values, which override built-in defaults.  Each run but ``report``
writes its fully resolved configuration next to its outputs.

Exit codes: 0 success, 1 structural or runtime failure (bad flags
included), 2 data-validation violations (outputs are still written),
3 fold-construction or fit failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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
_SHOWN_VIOLATIONS = 20  # per-row stderr lines per dataset; the rest are counted

# Each subcommand's options: key -> (flag type, default, help).  A bool type
# is a switch, a tuple lists the choices, and the flag is the key with dashes.
_INPUT = {
    "in_dir": (str, None, "directory holding the five conventional CSVs"),
    **{key: (str, None, f"path to the {key} CSV (overrides --in-dir)")
       for key in BUNDLE_FILENAMES},
}

_HORIZON = {
    "horizon": (int, 24, "label lead time in hours"),
    "label_window": (bool, False, "label failures anywhere within the horizon, "
                                  "not only at exactly t + horizon"),
}

_FIT = {
    "weight": (float, 100.0, "sample weight for failure rows (non-failures get 1)"),
    "l2": (float, logreg.FitConfig.l2, "L2 penalty strength on slopes"),
    "tolerance": (float, logreg.FitConfig.tolerance, "gradient max-norm stopping tolerance"),
    "max_iterations": (int, logreg.FitConfig.max_iterations, None),
    "solver": (logreg.SOLVERS, logreg.FitConfig.solver, None),
}

_EVAL = {
    **_INPUT,
    "out_dir": (str, None, "report bundle directory"),
    **_HORIZON,
    **_FIT,
    "threshold": (float, 0.5, "decision threshold"),
    "folds": (int, 3, "number of cross-validation folds"),
    "seed": (int, 0, "machine-shuffle seed for folds"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other bad input does (argparse uses 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAILURE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="failcast",
        description="Hourly machine-state assembly and 24h-ahead failure "
                    "prediction with weighted logistic regression.")
    parser.add_argument("--version", action="version",
                        version=f"failcast {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, options, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=summary,
                              argument_default=argparse.SUPPRESS)
        sub.add_argument("--config",
                         help="JSON file of flag values (explicit flags win)")
        for key, (kind, _, help_text) in options.items():
            if kind is bool:
                sub.add_argument(_flag(key), action="store_true", help=help_text)
            elif isinstance(kind, tuple):
                sub.add_argument(_flag(key), choices=kind, help=help_text)
            else:
                sub.add_argument(_flag(key), type=kind, help=help_text)
    return parser


def _resolve(subcommand: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    options = _COMMANDS[subcommand][1]
    explicit = {k: v for k, v in vars(args).items() if k != "subcommand"}
    config_path = explicit.pop("config", None)
    cfg = dict(DEFAULTS[subcommand])
    if config_path is not None:
        with open(config_path) as handle:
            try:
                file_cfg = json.load(handle)
            except ValueError as exc:
                raise ValueError(f"config file {config_path}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(options))
        if unknown:
            raise ValueError(f"unknown config keys for {subcommand}: {unknown}")
        for key, value in file_cfg.items():
            _check_config_value(key, value, *options[key][:2])
        cfg.update(file_cfg)
    cfg.update(explicit)
    for key, (kind, _, _) in options.items():
        # NaN fails the comparison; a JSON integer beyond float range exceeds it.
        if kind is float and not abs(cfg[key]) <= sys.float_info.max:
            raise ValueError(f"{_flag(key)} must be a finite number, got {cfg[key]!r}")
    return cfg


def _check_config_value(key, value, kind, default):
    """Reject a config-file value that the key's own flag could not yield;
    ``null`` is accepted only where the default is None."""
    if value is None and default is None:
        return
    choices = kind if isinstance(kind, tuple) else None
    expected = str if choices else kind
    if expected is bool:
        valid = isinstance(value, bool)
    else:
        kinds = (int, float) if expected is float else expected
        valid = isinstance(value, kinds) and not isinstance(value, bool)
    if valid and choices:
        valid = value in choices
    if not valid:
        allowed = f" in {list(choices)}" if choices else ""
        raise ValueError(f"config key {key!r}: {_flag(key)} takes "
                         f"{expected.__name__} values{allowed}, got {value!r}")


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


def _config_payload(command: str, cfg: dict) -> dict:
    return {"version": __version__, "command": command,
            "config": dict(sorted(cfg.items()))}


def _load_stream(cfg: dict):
    """Load the input datasets, report their violations on stderr and join
    them into the labeled stream; returns ``(rows, violations)``."""
    bundle, violations = ingest.load_bundle(**_input_paths(cfg))
    seen = dict.fromkeys(BUNDLE_FILENAMES, 0)
    for v in violations:
        seen[v.dataset] += 1
        if seen[v.dataset] <= _SHOWN_VIOLATIONS:
            row = "" if v.row_index is None else f" row {v.row_index}"
            print(f"violation [{v.dataset}{row}]: {v.message}", file=sys.stderr)
    for dataset, count in seen.items():
        if count > _SHOWN_VIOLATIONS:
            print(f"violation [{dataset}]: {count - _SHOWN_VIOLATIONS} more not shown",
                  file=sys.stderr)
    if violations:
        print(f"{len(violations)} validation violation(s); continuing", file=sys.stderr)
    return (assemble.build_event_stream(bundle, cfg["horizon"], cfg["label_window"]),
            violations)


def _config(config_class, cfg: dict):
    return config_class(**{f.name: cfg[f.name] for f in dataclasses.fields(config_class)})


def _warn_unconverged(what: str, converged: bool, iterations: int):
    if not converged:
        print(f"warning: {what}: fit did not converge in {iterations} "
              "iteration(s); gradient max-norm is above --tolerance", file=sys.stderr)


def cmd_generate(cfg: dict, rows):
    bundle = synth.generate(_config(synth.SynthConfig, cfg))
    ingest.write_bundle(bundle, cfg["out_dir"])
    print(f"wrote {cfg['machines']} machines x {cfg['days']} days "
          f"({len(bundle.failures)} failures) to {cfg['out_dir']}")


def cmd_assemble(cfg: dict, rows):
    ingest.write_csv(cfg["out"], rows)
    positives = int(rows.label.sum())
    print(f"wrote {len(rows)} rows ({positives} labeled failures) to {cfg['out']}")


def cmd_train(cfg: dict, rows):
    data = assemble.encode(rows, weight_positive=cfg["weight"])
    model = logreg.fit(data, _config(logreg.FitConfig, cfg))
    meta = model.fit_meta
    _warn_unconverged("train", meta.converged, meta.iterations)
    logreg.save_model(model, cfg["out"])
    print(f"fit {len(rows)} rows in {meta.iterations} iterations "
          f"(objective {meta.final_objective:.6g}); model saved to {cfg['out']}")


def _run_cv(command: str, cfg: dict, rows, rule: str, rule_threshold: float):
    if rule == "relative":
        evaluate.check_prune_threshold(rule_threshold)
    folds = evaluate.make_folds(rows, k=cfg["folds"], seed=cfg["seed"])
    fit_config = _config(logreg.FitConfig, cfg)
    full = evaluate.evaluate_cv(rows, folds, fit_config, cfg["weight"],
                                cfg["threshold"])
    reduced_names = evaluate.prune_features(full["weights"], rule=rule,
                                            threshold=rule_threshold)
    reduced = evaluate.evaluate_cv(rows, folds, fit_config, cfg["weight"],
                                   cfg["threshold"], features=reduced_names)
    runs = {"full": full, "reduced": reduced}
    for run_name, run in runs.items():
        for fold in run["folds"]:
            _warn_unconverged(f"{run_name} fold {fold['fold_index']}",
                              fold["converged"], fold["iterations"])
    payload = {
        **_config_payload(command, cfg),
        "dataset_digest": report.dataset_digest(_input_paths(cfg)),
        "label_semantics": "within-horizon" if cfg["label_window"] else "point-at-horizon",
        "pruning_rule": rule,
        "runs": runs,
    }
    report.write_bundle(cfg["out_dir"], payload)
    print(f"average failure recall: full {full['average_normalized'][1][1]:.4f}, "
          f"reduced ({len(reduced_names)} features) "
          f"{reduced['average_normalized'][1][1]:.4f}")
    print(f"report bundle written to {cfg['out_dir']}")


def cmd_report(cfg: dict, rows):
    payload = report.load_bundle_payload(cfg["bundle"])
    try:
        report.render(cfg["bundle"], payload)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # Here the payload is outside input, not one evaluate just built.
        raise ValueError(f"{os.path.join(cfg['bundle'], report.REPORT_JSON)}: "
                         f"not a report payload ({type(exc).__name__}: {exc})") from None
    print(f"re-rendered artifacts in {cfg['bundle']}")


# Each subcommand: (help summary, options, handler taking (cfg, rows)).
_COMMANDS = {
    "generate": ("write a seeded synthetic five-CSV dataset", {
        "out_dir": (str, None, "output directory"),
        "machines": (int, synth.SynthConfig.machines, "number of machines"),
        "days": (int, synth.SynthConfig.days, "number of simulated days"),
        "seed": (int, synth.SynthConfig.seed, "generator seed"),
        "failure_rate": (float, synth.SynthConfig.failure_rate,
                         "target per-hour failure probability"),
        "signal": (float, synth.SynthConfig.signal,
                   "odds ratio of error-driven to background failures"),
        "error_rate": (float, synth.SynthConfig.error_rate,
                       "per-flag per-hour error probability"),
        "maintenance_rate": (float, synth.SynthConfig.maintenance_rate,
                             "per-hour scheduled maintenance probability"),
        "drift": (bool, synth.SynthConfig.drift,
                  "add a telemetry ramp in the day before failures"),
    }, cmd_generate),
    "assemble": ("join the five CSVs into a labeled hourly stream", {
        **_INPUT, "out": (str, None, "output stream CSV path"), **_HORIZON},
        cmd_assemble),
    "train": ("fit one weighted model on the full stream", {
        **_INPUT, "out": (str, None, "output model file path"), **_HORIZON, **_FIT},
        cmd_train),
    "evaluate": ("machine-disjoint temporal cross-validation report", _EVAL,
                 lambda cfg, rows: _run_cv("evaluate", cfg, rows, "paper-reduced", 0.10)),
    "prune": ("evaluate, prune weak features, re-evaluate reduced set", {
        **_EVAL,
        "rule": (evaluate.PRUNE_RULES, "relative", "pruning rule for the reduced run"),
        "prune_threshold": (float, 0.10,
                            "relative-magnitude cutoff for rule 'relative'"),
    }, lambda cfg, rows: _run_cv("prune", cfg, rows, cfg["rule"], cfg["prune_threshold"])),
    "report": ("re-render summary/CSV/SVG artifacts from report.json", {
        "bundle": (str, None, "report bundle directory")}, cmd_report),
}

DEFAULTS = {name: {key: default for key, (_, default, _) in options.items()}
            for name, (_, options, _) in _COMMANDS.items()}


def main(argv=None) -> int:
    """Run a subcommand's handler between the steps every subcommand shares."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args.subcommand, args)
        out_key = next(key for key in ("out_dir", "out", "bundle") if key in cfg)
        if cfg[out_key] is None:
            raise ValueError(f"missing required option {_flag(out_key)}")
        rows, violations = _load_stream(cfg) if "in_dir" in cfg else (None, [])
        _COMMANDS[args.subcommand][2](cfg, rows)
        if out_key != "bundle":  # report re-renders a bundle that has its record
            record = (os.path.join(cfg[out_key], RUN_CONFIG) if out_key == "out_dir"
                      else os.path.splitext(cfg[out_key])[0] + ".config.json")
            report.write_json(record, _config_payload(args.subcommand, cfg))
        return EXIT_VIOLATIONS if violations else EXIT_OK
    except (evaluate.FoldError, logreg.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (ingest.IngestError, assemble.AssembleError, assemble.EncodingError,
            evaluate.PruneError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
