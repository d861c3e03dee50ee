"""Command-line entry point.

One JSON config per run; subcommands: datagen, train, eval, evolve, uq,
report.  Artifacts land in the output directory together with a
manifest (config hash, seeds, package version, artifact list) so any run
can be reproduced from its manifest.  Exit codes: 0 success, 1 runtime
error, 2 config validation error.

Heavy imports happen inside main() after --threads is applied, so the BLAS
thread count can still be pinned from the command line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

class ValidationError(ValueError):
    pass


_SCHEMAS = {
    "datagen": {"version", "command", "seed", "out", "dataset"},
    "train": {"version", "command", "seed", "out", "model", "data", "curve",
              "points", "train"},
    "eval": {"version", "command", "seed", "out", "checkpoint", "suite"},
    "evolve": {"version", "command", "seed", "out", "problem", "backend"},
    "uq": {"version", "command", "seed", "out", "backend", "uq"},
    "report": {"version", "command", "seed", "out", "runs"},
}

_SUB_SCHEMAS = {
    "data": {"path"},
    "points": {"domain", "n", "spacing", "margin"},
    "train": {"epochs", "batch_size", "lr", "lr_decay", "log_every"},
    "uq": {"samples", "probe", "tau", "n_steps", "mean", "std", "clip"},
}

# keys that each dataset, model, suite, backend and backend domain kind and
# each equation reads
_DATASET_KEYS = {
    "boundary": {"kind", "kappas", "n_g", "curve", "length_scales", "coupled"},
    "source": {"kind", "kappas", "per_kappa", "n", "mix", "sigma_range", "coupled"},
    "source-offlattice": {"kind", "kappas", "per_kappa", "curve", "spacing", "margin"},
}
_MODEL_KEYS = {
    "boundary": {"kind", "internal"},
    "source": {"kind", "hidden_k", "hidden_g"},
}
_BOUNDARY_SUITE_KEYS = {"kind", "kappas", "n_bd", "eval_n", "eval_lo", "eval_hi"}
_SUITE_KEYS = {
    "scalar-boundary": _BOUNDARY_SUITE_KEYS,
    "system-boundary": _BOUNDARY_SUITE_KEYS,
    "scalar-source": {"kind", "kappas"},
    "system-source": {"kind", "kappas"},
}
_BACKEND_KEYS = {
    "classical": {"kind", "domain"},
    "nekm": {"kind", "domain", "boundary_checkpoint", "source_checkpoint"},
}
# make_curve's parameters per kind, in the top-level and the dataset.curve section
_CURVE_KEYS = {
    "square": {"kind", "n_bd", "side"},
    "disk": {"kind", "n_bd", "radius"},
    "petal": {"kind", "n_bd", "base", "amp", "lobes"},
}
# (section, keys per kind, default kind) of every section that has a kind
_KINDED = (("dataset", _DATASET_KEYS, None), ("model", _MODEL_KEYS, None),
           ("suite", _SUITE_KEYS, None), ("backend", _BACKEND_KEYS, "classical"),
           ("curve", _CURVE_KEYS, "square"))
_DOMAIN_KEYS = {
    "square": {"kind", "n", "n_bd"},
    "petal": {"kind", "n_bd", "spacing", "margin", "base", "amp", "lobes"},
}
_PROBLEM_KEYS = {"equation", "tau", "n_steps", "store_fields"}
_EQUATION_KEYS = {
    "heat": {"scheme", "a", "b"},
    "wave": {"a", "theta"},
    "schrodinger": {"splitting", "w"},
}
# the values of the problem keys that name a scheme
_SCHEMES = {"scheme": ("be", "cn"), "splitting": ("strang", "lie")}
# default wave numbers of the heat and wave problems; b = sqrt(1 - a^2)
_HEAT_A = 2**-0.5
_WAVE_A = 0.6


def _check_keys(where, section, allowed):
    extra = set(section) - allowed
    if extra:
        raise ValidationError(f"unknown keys in {where}: {sorted(extra)}")


def validate_config(cfg):
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    cmd = cfg.get("command")
    if cmd not in _SCHEMAS:
        raise ValidationError(f"command must be one of {sorted(_SCHEMAS)}, got {cmd!r}")
    if cfg.get("version") != 1:
        raise ValidationError("config version must be 1")
    unknown = set(cfg) - _SCHEMAS[cmd]
    if unknown:
        raise ValidationError(f"unknown top-level keys for {cmd}: {sorted(unknown)}")
    _integer("seed", cfg.get("seed", 0), 0)
    for key, allowed in _SUB_SCHEMAS.items():
        section = cfg.get(key)
        if isinstance(section, dict):
            _check_keys(f"'{key}'", section, allowed)
    for key, kinds, default in _KINDED:
        _check_kinded(key, cfg.get(key), kinds, default)
    if isinstance(cfg.get("dataset"), dict):
        _check_kinded("dataset.curve", cfg["dataset"].get("curve"), _CURVE_KEYS, "square")
    backend = cfg.get("backend")
    domain = backend.get("domain") if isinstance(backend, dict) else None
    _check_kinded("backend.domain", domain, _DOMAIN_KEYS, "square")
    prob = cfg.get("problem")
    if isinstance(prob, dict):
        eq = prob.get("equation")
        if not isinstance(eq, str) or eq not in _EQUATION_KEYS:
            raise ValidationError(f"unknown equation {eq!r}")
        _check_keys(f"'problem' for equation {eq!r}", prob,
                    _PROBLEM_KEYS | _EQUATION_KEYS[eq])
        _positive(prob, "tau", "problem")
        _integer("problem.n_steps", prob.get("n_steps"), 1)
        if not isinstance(prob.get("store_fields", False), bool):
            raise ValidationError(f"problem.store_fields={prob['store_fields']!r} must be "
                                  f"true or false")
        theta = _number(prob, "theta", 0.5)
        if not 0.0 < theta <= 1.0:
            raise ValidationError(f"problem.theta={theta} outside the (0, 1] bound")
        for key, schemes in _SCHEMES.items():
            if key in prob and prob[key] not in schemes:
                raise ValidationError(f"problem.{key}={prob[key]!r} must be one of "
                                      f"{list(schemes)}")
        _check_wave_numbers(eq, prob)
    if isinstance(cfg.get("uq"), dict):
        _check_uq(cfg["uq"], domain)
    for key in ("dataset", "suite"):
        if isinstance(cfg.get(key), dict) and "kappas" in cfg[key]:
            _kappa_list(cfg[key]["kappas"], f"{key}.kappas")
    return cfg


def _check_kinded(where, section, kinds, default):
    """A section's kind is one of kinds, and its keys are those of its kind."""
    if not isinstance(section, dict):
        return
    kind = section.get("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"unknown {where} kind {kind!r} in '{where}.kind', "
                              f"expected one of {sorted(kinds)}")
    _check_keys(f"'{where}' for kind {kind!r}", section, kinds[kind])
    for key in ("side", "radius"):
        if key in section:
            _positive(section, key, where)
    # n_bd: sample_quadrature's minimum; n: the smallest lattice with an interior
    for key, low in (("n_bd", 8), ("n", 3)):
        if key in section:
            _integer(f"{where}.{key}", section[key], low)


def _number(section, key, default, where="problem"):
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}.{key}={value!r} must be a number")
    return value


def _positive(section, key, where):
    if not 0.0 < _number(section, key, None, where) < math.inf:
        raise ValidationError(f"{where}.{key}={section[key]!r} must be a finite number > 0")


def _integer(where, value, low):
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValidationError(f"{where}={value!r} must be an integer >= {low}")


def _check_wave_numbers(eq, prob):
    """heat and wave fields use the wave vector (a, b) with a^2 + b^2 = 1;
    b defaults to sqrt(1 - a^2) and is fixed to it for wave."""
    if eq not in ("heat", "wave"):
        return
    a = _number(prob, "a", _HEAT_A if eq == "heat" else _WAVE_A)
    if eq == "heat" and "b" in prob:
        b = _number(prob, "b", None)
        if abs(a * a + b * b - 1.0) > 1e-12:
            raise ValidationError(f"problem.a={a}, problem.b={b}: heat needs "
                                  f"a^2 + b^2 = 1 (to 1e-12)")
    elif abs(a) > 1.0:
        raise ValidationError(f"problem.a={a}: |a| must be at most 1, "
                              f"since b = sqrt(1 - a^2)")


def _check_uq(u, domain):
    """The probe lies in the unit square, the clip range keeps b = sqrt(1 - a^2)
    real, and the domain is the square lattice that the probe interpolates."""
    if isinstance(domain, dict) and domain.get("kind", "square") != "square":
        raise ValidationError(f"uq needs a square backend domain, got "
                              f"'backend.domain.kind' {domain['kind']!r}")
    probe = u.get("probe")
    if "probe" in u and not (_is_pair(probe) and all(0.0 <= c <= 1.0 for c in probe)):
        raise ValidationError(f"uq.probe={probe!r} must be a point (x, y) "
                              f"of the unit square [0, 1]^2")
    clip = u.get("clip")
    if "clip" in u and not (_is_pair(clip) and -1.0 <= clip[0] <= clip[1] <= 1.0):
        raise ValidationError(f"uq.clip={clip!r} must be a range (lo, hi) with "
                              f"-1 <= lo <= hi <= 1, since b = sqrt(1 - a^2)")


def _is_pair(value):
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    for c in value))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_manifest(out, cfg, artifacts):
    from . import __version__
    manifest = {
        "command": cfg["command"],
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "seed": cfg.get("seed"),
        "version": __version__,
        "artifacts": sorted(artifacts),
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _kappa_list(spec, where):
    """The kappas that a list or a span {start, stop, count} names; each must
    be finite and positive, since the operators hold 1/kappa."""
    import numpy as np
    try:
        if isinstance(spec, list):
            kappas = [float(k) for k in spec]
        else:
            kappas = [float(k) for k in np.linspace(spec["start"], spec["stop"], spec["count"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}={spec!r} must be a list of numbers "
                              f"or {{start, stop, count}}") from exc
    if not all(0.0 < k < math.inf for k in kappas):
        raise ValidationError(f"{where}={spec!r}: every kappa must be finite and positive")
    return kappas


def _build_curve_grid(section):
    from .geometry import make_curve, sample_quadrature
    params = {k: v for k, v in section.items() if k not in ("kind", "n_bd")}
    curve = make_curve(section.get("kind", "square"), **params)
    return curve, sample_quadrature(curve, section.get("n_bd", 256))


def cmd_datagen(cfg, out):
    from . import datagen
    from .geometry import petal_lattice
    d = cfg["dataset"]
    kappas = _kappa_list(d["kappas"], "dataset.kappas")
    seed = cfg.get("seed", 0)
    kind = d["kind"]
    if kind == "boundary":
        _, grid = _build_curve_grid(d.get("curve", {}))
        ds = datagen.build_boundary_dataset(
            kappas, d.get("n_g", 2000), grid, seed,
            **{k: d[k] for k in ("length_scales", "coupled") if k in d})
    elif kind == "source":
        ds = datagen.build_source_dataset(
            kappas, d.get("per_kappa", 2000), d.get("n", 41), seed,
            **{k: d[k] for k in ("mix", "sigma_range", "coupled") if k in d})
    else:
        curve, grid = _build_curve_grid(d.get("curve", {"kind": "petal"}))
        interior = petal_lattice(curve, d.get("spacing", 0.03), d.get("margin"))
        ds = datagen.build_offlattice_source_dataset(
            kappas, d.get("per_kappa", 500), grid, interior.points, seed)
    path = os.path.join(out, "dataset.bin")
    datagen.save_dataset(ds, path)
    _write_json(os.path.join(out, "summary.json"),
                {"records": int(ds.n_records), "hash": ds.content_hash(), "kind": ds.kind})
    _write_manifest(out, cfg, ["dataset.bin", "summary.json"])
    return 0


def cmd_train(cfg, out):
    from . import datagen, training
    from .kernels import ScalarKernelSpec, SystemKernelSpec, boundary_kernel
    from .geometry import petal_lattice, square_lattice
    from .nn import save_checkpoint

    # the model's keys other than the kind are TrainConfig fields
    kind = cfg["model"]["kind"]
    try:
        tcfg = training.TrainConfig(
            seed=cfg.get("seed", 0), **cfg.get("train", {}),
            **{k: v for k, v in cfg["model"].items() if k != "kind"})
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"'train': {exc}") from exc
    ds = datagen.load_dataset(cfg["data"]["path"])
    kmats = None
    if kind == "boundary":
        _, grid = _build_curve_grid(cfg.get("curve", {}))
        built = {k: ds.provenance.get(k) for k in ("kind", "curve", "n_bd")}
        wanted = {"kind": "boundary", "curve": grid.curve.kind, "n_bd": grid.n}
        if built != wanted:
            raise ValidationError(f"the dataset was built with {built}, but the "
                                  f"boundary model trains on {wanted}")
        spec_cls = SystemKernelSpec if _coupled_layout(ds, grid.n) else ScalarKernelSpec
        kmats = [boundary_kernel(spec_cls(float(k)), grid) for k in ds.kappas]
        model, info = training.train_boundary_model(tcfg, ds, kmats)
    else:
        psec = cfg.get("points", {"domain": "square", "n": 41})
        if psec.get("domain", "square") == "square":
            points = square_lattice(psec.get("n", 41)).points
        else:
            curve, _ = _build_curve_grid(cfg.get("curve", {"kind": "petal"}))
            points = petal_lattice(curve, psec.get("spacing", 0.03),
                                   psec.get("margin")).points
        _coupled_layout(ds, len(points))
        model, info = training.train_source_model(tcfg, ds, points)
    metric, errors = training.training_error(model, ds, kmats)
    train_error = {"metric": metric, "per_kappa": errors}
    meta = {"seed": tcfg.seed, "epochs": tcfg.epochs,
            "final_loss": info["final_loss"], "train_error": train_error,
            "loss_tail": info["loss_trace"][-5:], "data_hash": ds.content_hash(),
            "kappas": [float(k) for k in ds.kappas]}
    save_checkpoint(model, os.path.join(out, "model.ckpt"), meta)
    _write_csv(os.path.join(out, "training_curve.csv"), ["step", "loss"],
               info["loss_trace"])
    _write_json(os.path.join(out, "summary.json"),
                {"final_loss": info["final_loss"], "train_error": train_error,
                 "train_seconds": info["train_seconds"]})
    _write_manifest(out, cfg, ["model.ckpt", "training_curve.csv", "summary.json"])
    return 0


def _coupled_layout(ds, n):
    """Whether the dataset's records hold 2 n values (coupled) or n (scalar)."""
    width = (ds.g if ds.g is not None else ds.f).shape[1]
    if width not in (n, 2 * n):
        raise ValidationError(f"the dataset's records hold {width} values, neither "
                              f"{n} (scalar) nor {2 * n} (coupled)")
    return width == 2 * n


_ERROR_COLUMNS = ["case", "abs_l2", "abs_linf", "rel_l2", "rel_linf"]


def cmd_eval(cfg, out):
    from .experiments import EVAL_SUITES
    from .nn import load_checkpoint

    model, meta = load_checkpoint(cfg["checkpoint"])
    s = cfg["suite"]
    options = {k: v for k, v in s.items() if k not in ("kind", "kappas")}
    rows = EVAL_SUITES[s["kind"]](model, _kappa_list(s["kappas"], "suite.kappas"),
                                 **options)
    _write_csv(os.path.join(out, "errors.csv"), _ERROR_COLUMNS,
               [[row[c] for c in _ERROR_COLUMNS] for row in rows])
    _write_json(os.path.join(out, "summary.json"), {"experiment": s["kind"], "rows": rows})
    _write_manifest(out, cfg, ["errors.csv", "summary.json"])
    return 0


def _build_backend(section, equation):
    """The backend for equation; learned ones are coupled for Schrodinger only."""
    from .evolution import ClassicalBackend, NekmBackend, PointCloudDomain, \
        SquareLatticeDomain
    from .geometry import make_curve, petal_lattice
    from .nn import load_checkpoint

    dom_cfg = section.get("domain", {})
    dkind = dom_cfg.get("kind", "square")
    if dkind == "square":
        domain = SquareLatticeDomain(n=dom_cfg.get("n", 41),
                                     n_bd=dom_cfg.get("n_bd", 256))
    else:                         # validate_config admits square and petal only
        curve = make_curve("petal", **{k: dom_cfg[k] for k in ("base", "amp", "lobes")
                                       if k in dom_cfg})
        interior = petal_lattice(curve, dom_cfg.get("spacing", 0.03),
                                 dom_cfg.get("margin"))
        domain = PointCloudDomain(curve, interior, n_bd=dom_cfg.get("n_bd", 256))
    if section.get("kind", "classical") == "classical":
        return ClassicalBackend(domain)
    bnd, bnd_meta = load_checkpoint(section["boundary_checkpoint"])
    src, src_meta = load_checkpoint(section["source_checkpoint"])
    # the lambda range is the overlap of the kappa spans the checkpoints record
    if not (bnd_meta.get("kappas") and src_meta.get("kappas")):
        raise ValidationError("a learned backend needs checkpoints that record "
                              "the kappas they were trained on")
    spans = [(min(m["kappas"]), max(m["kappas"])) for m in (bnd_meta, src_meta)]
    lam_range = (max(s[0] for s in spans), min(s[1] for s in spans))
    if lam_range[0] > lam_range[1]:
        raise ValidationError(f"checkpoint kappa spans {spans} do not overlap")
    if src.coupled != (equation == "schrodinger"):
        need, have = ("scalar", "coupled") if src.coupled else ("coupled", "scalar")
        raise ValidationError(f"equation {equation!r} needs {need} checkpoints, but the "
                              f"source checkpoint is {have}")
    try:
        return NekmBackend(domain, bnd, src, lam_range, coupled=src.coupled)
    except ValueError as exc:     # models that do not fit the domain
        raise ValidationError(f"backend: {exc}") from exc


def _write_field_csv(path, pts, fld):
    import numpy as np
    if np.iscomplexobj(fld):
        _write_csv(path, ["x", "y", "re", "im"], np.column_stack([pts, fld.real, fld.imag]))
    else:
        _write_csv(path, ["x", "y", "u"], np.column_stack([pts, fld]))


def cmd_evolve(cfg, out):
    import numpy as np
    from . import experiments
    from .evolution import heat_family, run_heat, run_schrodinger, run_wave
    from .plotting import svg_heatmap

    p = cfg["problem"]
    eq = p["equation"]
    backend = _build_backend(cfg["backend"], eq)
    tau, n_steps = p["tau"], p["n_steps"]
    store = p.get("store_fields", False)
    if eq == "heat":
        a = p.get("a", _HEAT_A)
        b = p.get("b", float(np.sqrt(1.0 - a * a)))
        prob = heat_family(backend.domain, a, b, tau, n_steps)
        res = run_heat(prob, backend, scheme=p.get("scheme", "be"),
                       store_fields=store)
        res = replace(res, final=res.final[0],
                      fields={k: v[0] for k, v in res.fields.items()})
    elif eq == "wave":
        prob = experiments.wave_problem(backend.domain, p.get("a", _WAVE_A), tau,
                                        n_steps, theta=p.get("theta", 0.5))
        res = run_wave(prob, backend, store_fields=store)
    else:                         # schrodinger; validate_config admits no other
        prob = experiments.schrodinger_problem(backend.domain, tau, n_steps,
                                               w=p.get("w", 1.0))
        res = run_schrodinger(prob, backend, splitting=p.get("splitting", "strang"),
                              store_fields=store)
    trace_columns = ["t", "abs_l2", "abs_linf", "rel_l2"]
    _write_csv(os.path.join(out, "error_trace.csv"), trace_columns,
               [[e[c] for c in trace_columns] for e in res.error_trace])
    final = res.final
    pts = backend.domain.points
    _write_field_csv(os.path.join(out, "final_field.csv"), pts, final)
    artifacts = ["error_trace.csv", "final_field.csv", "summary.json"]
    for step, fld in res.fields.items():
        name = f"field_step_{step:04d}.csv"
        _write_field_csv(os.path.join(out, name), pts, fld)
        artifacts.append(name)
    if hasattr(backend.domain, "n"):
        n = backend.domain.n
        field = final.real if np.iscomplexobj(final) else final
        svg_heatmap(os.path.join(out, "final_field.svg"),
                    field.reshape(n, n), title=f"{eq} final field")
        artifacts.append("final_field.svg")
    # the label names the scheme that the run recorded, defaults included
    scheme = res.meta.get("scheme", res.meta.get("splitting", ""))
    summary = {"experiment": f"{eq}-{scheme}",
               "tau": tau, "n_steps": n_steps,
               "final_rel_l2": res.error_trace[-1]["rel_l2"] if res.error_trace else None}
    if res.error_trace:
        from .evolution import trajectory_rel_l2
        summary["trajectory_rel_l2"] = trajectory_rel_l2(res)
    _write_json(os.path.join(out, "summary.json"), summary)
    _write_manifest(out, cfg, artifacts)
    return 0


def cmd_uq(cfg, out):
    import numpy as np
    from .evolution import uq_run

    backend = _build_backend(cfg["backend"], "heat")
    u = dict(cfg["uq"])
    stats, hist = uq_run(backend, u.pop("samples", 10000), cfg.get("seed", 0), **u)
    for name, arr in hist.items():
        counts, edges = np.histogram(arr, bins=40)
        _write_csv(os.path.join(out, f"hist_{name}.csv"),
                   ["bin_left", "bin_right", "count"], zip(edges[:-1], edges[1:], counts))
    _write_json(os.path.join(out, "summary.json"), {"experiment": "uq-heat-cn", **stats})
    _write_manifest(out, cfg, [f"hist_{k}.csv" for k in hist] + ["summary.json"])
    return 0


_GATES = {
    "heat-be": ("final_rel_l2", 0.015),
    "heat-cn": ("final_rel_l2", 0.015),
    "wave-": ("final_rel_l2", 0.01),
    "schrodinger-strang": ("trajectory_rel_l2", 0.02),
    "schrodinger-lie": ("trajectory_rel_l2", 0.05),
    "uq-heat-cn": ("rel_l2_error", 0.01),
}


def cmd_report(cfg, out):
    rows = []
    for run_dir in cfg.get("runs", []):
        man_path = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(man_path):
            raise RuntimeError(f"missing manifest in {run_dir}")
        with open(man_path) as fh:
            manifest = json.load(fh)
        summary = {}
        spath = os.path.join(run_dir, "summary.json")
        if os.path.exists(spath):
            with open(spath) as fh:
                summary = json.load(fh)
        exp = summary.get("experiment", manifest["command"])
        gate = next((g for key, g in _GATES.items() if exp.startswith(key)), None)
        if gate and gate[0] in summary and summary[gate[0]] is not None:
            value = summary[gate[0]]
            status = "pass" if value <= gate[1] else "fail"
            rows.append([run_dir, manifest["command"], exp, gate[0], value,
                         gate[1], status])
        else:
            rows.append([run_dir, manifest["command"], exp, "", "", "", "info"])
    _write_csv(os.path.join(out, "index.csv"),
               ["run", "command", "experiment", "gate", "value", "threshold", "status"],
               rows)
    _write_manifest(out, cfg, ["index.csv"])
    return 0


_COMMANDS = {
    "datagen": cmd_datagen, "train": cmd_train, "eval": cmd_eval,
    "evolve": cmd_evolve, "uq": cmd_uq, "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="evokernel",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed-override", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        cfg.setdefault("command", args.command)
        if cfg["command"] != args.command:
            raise ValidationError(
                f"config command {cfg['command']!r} != CLI command {args.command!r}")
        if args.seed_override is not None:
            cfg["seed"] = args.seed_override
        validate_config(cfg)
    except (ValidationError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out or cfg.get("out") or "."
    os.makedirs(out, exist_ok=True)
    try:
        return _COMMANDS[cfg["command"]](cfg, out)
    except ValidationError as exc:  # config checks that need loaded inputs
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> exit 1 with message
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
