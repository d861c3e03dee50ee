"""Command-line entry point.

One JSON config per run; subcommands: datagen, train, eval, evolve, uq,
report.  Artifacts land in the output directory together with a
manifest (config hash, seeds, package version, artifact list, and the
machine: CPUs, thread variables, numpy and scipy versions, peak memory) so
any run can be reproduced from its manifest.  Exit codes: 0 success, 1 runtime
error, 2 config validation error.

_TABLES is the one place where config rules live: each command's keys and
each key's rule.  validate_config walks it before any work starts.  No key
restates the geometry a checkpoint records; checks against it exit 2 too, as
does a checkpoint or dataset that the config names and that is missing or
that its loader refuses.

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
import resource
import sys
from typing import NamedTuple


class ValidationError(ValueError):
    pass


class _Rule(NamedTuple):
    """A leaf key's rule: ok(value) says whether value is valid, text says what is."""
    ok: object
    text: str

    def __call__(self, value, where):
        if not self.ok(value):
            raise ValidationError(f"{where}={value!r} must be {self.text}")


class _Kinds(NamedTuple):
    """A section whose keys depend on its kind, the value of its key (default:
    default): kinds maps each kind to its own keys, common holds every kind's."""
    key: str
    default: object
    kinds: dict
    common: dict = {}

    def table(self, section, where):
        kind = section.get(self.key, self.default)
        if not isinstance(kind, str) or kind not in self.kinds:
            raise ValidationError(f"unknown {where} {self.key} {kind!r} in "
                                  f"'{where}.{self.key}', expected one of {sorted(self.kinds)}")
        return {**self.common, **self.kinds[kind], self.key: _choice(*self.kinds)}


def _int(low, step=1):
    return _Rule(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low
                 and v % step == 0,
                 f"an integer >= {low}" + (f" divisible by {step}" if step > 1 else ""))


def _num(lo=-math.inf, hi=math.inf, ends="()"):
    """A finite number from lo to hi, each end open or closed as ends shows."""
    return _Rule(lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                            and -math.inf < v < math.inf
                            and (lo < v if ends[0] == "(" else lo <= v)
                            and (v < hi if ends[1] == ")" else v <= hi)),
                 f"a finite number in {ends[0]}{lo:g}, {hi:g}{ends[1]}")


def _choice(*options):
    return _Rule(lambda v: not isinstance(v, bool) and v in options, f"one of {list(options)}")


def _pair(item, ordered=False):
    return _Rule(lambda v: (isinstance(v, (list, tuple)) and len(v) == 2
                            and all(item.ok(c) for c in v) and (not ordered or v[0] <= v[1])),
                 f"a pair{' (lo, hi) with lo <= hi' if ordered else ''}, each {item.text}")


def _list(item, min_len=0):
    return _Rule(lambda v: (isinstance(v, list) and len(v) >= min_len
                            and all(item.ok(c) for c in v)),
                 f"a {'non-empty ' if min_len else ''}list, each {item.text}")


def _kappa_list(spec, where):
    """The kappas that a list or a span {start, stop, count} names: at least one,
    each finite and positive, since the operators hold 1/kappa."""
    import numpy as np
    if isinstance(spec, dict):
        _walk(spec, where, _SPAN)
    try:
        if isinstance(spec, list):
            kappas = [float(k) for k in spec]
        else:
            kappas = [float(k) for k in np.linspace(spec["start"], spec["stop"], spec["count"])]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}={spec!r} must be a list of numbers "
                              f"or {{start, stop, count}}") from exc
    if not kappas or not all(0.0 < k < math.inf for k in kappas):
        raise ValidationError(f"{where}={spec!r} must name at least one kappa, each finite "
                              f"and positive")
    return kappas


_STR = _Rule(lambda v: isinstance(v, str), "a string")
_BOOL = _Rule(lambda v: isinstance(v, bool), "true or false")
_POSITIVE = _num(0)
_NONNEGATIVE = _num(0, ends="[)")
_A = _num(-1, 1, "[]")                      # a wave number: b = sqrt(1 - a^2) is real
_N = _int(3)                                # the smallest lattice with an interior
_SPAN = {"start": _num(), "stop": _num(), "count": _int(1)}
_SPACING = {"spacing": _POSITIVE, "margin": _NONNEGATIVE}
_PETAL = {"base": _POSITIVE, "amp": _num(0, 1, "[)"), "lobes": _int(1)}
_N_BD = _int(8)                             # sample_quadrature's minimum
# the lattice size n and the boundary node count n_bd that a config may leave out
_DEFAULT_N, _DEFAULT_N_BD = 41, 256
# make_curve's parameters for the curves a learned backend serves: the unit
# square, whose nodes split evenly over its four edges, and a petal
_CURVE = _Kinds("kind", "square", {
    "square": {"n_bd": _int(8, step=4)},
    "petal": {"n_bd": _N_BD, **_PETAL},
})
_DATASET = _Kinds("kind", None, {
    "boundary": {"n_g": _int(1), "n_bd": _N_BD, "length_scales": _list(_POSITIVE, 1),
                 "coupled": _BOOL},
    "source": {"per_kappa": _int(1), "n": _N, "mix": _num(0, 1, "[]"),
               "sigma_range": _pair(_POSITIVE, ordered=True), "coupled": _BOOL},
    "source-offlattice": {"per_kappa": _int(1), "n_bd": _N_BD, **_PETAL, **_SPACING},
}, common={"kappas": _kappa_list})
_PROBLEM = _Kinds("equation", None, {
    "heat": {"scheme": _choice("be", "cn"), "a": _A},
    "wave": {"a": _A, "theta": _num(0, 1, "(]")},
    "schrodinger": {"splitting": _choice("strang", "lie"), "w": _NONNEGATIVE},
}, common={"tau": _POSITIVE, "n_steps": _int(1), "store_fields": _BOOL})
_BACKEND = _Kinds("kind", "classical", {
    "classical": {"n": _N}, "nekm": {"boundary_checkpoint": _STR, "source_checkpoint": _STR}})
_TOP = {"version": _choice(1), "command": _STR, "seed": _int(0), "out": _STR}
_TABLES = {
    "datagen": {**_TOP, "dataset": _DATASET},
    "train": {**_TOP, "model": _Kinds("kind", None, {
                  "boundary": {"internal": _int(1)},
                  "source": {"hidden_k": _list(_int(1)), "hidden_g": _list(_int(1))}}),
              "data": {"path": _STR}, "curve": _CURVE,
              "points": _Kinds("kind", "square", {"square": {"n": _N},
                                                  "petal": {**_PETAL, **_SPACING}}),
              "train": {"epochs": _int(1), "batch_size": _int(1), "lr": _POSITIVE,
                        "lr_decay": _num(0, 1, "(]"), "log_every": _int(1)}},
    "eval": {**_TOP, "checkpoint": _STR, "suite": {
        "kappas": _kappa_list, "eval_n": _int(2), "eval_lo": _num(0, 1), "eval_hi": _num(0, 1)}},
    "evolve": {**_TOP, "problem": _PROBLEM, "backend": _BACKEND},
    "uq": {**_TOP, "backend": _BACKEND, "uq": {
        "samples": _int(1), "probe": _pair(_num(0, 1, "[]")), "tau": _POSITIVE,
        "n_steps": _int(1), "mean": _num(), "std": _NONNEGATIVE,
        "clip": _pair(_A, ordered=True)}},
    "report": {**_TOP, "runs": _list(_STR)},
}
# the grid record that train writes into a boundary checkpoint; a source
# checkpoint's domain record has the shape of train's points section
_GRID_RECORD = {"curve": _CURVE, "sha256": _STR}
# the keys that the commands read with no default
_REQUIRED = {"version", "dataset", "dataset.kappas", "model", "data", "data.path",
             "checkpoint", "suite", "suite.kappas", "problem", "problem.tau",
             "problem.n_steps", "backend", "backend.boundary_checkpoint",
             "backend.source_checkpoint", "uq"}


def validate_config(cfg):
    """Checks cfg against its command's table and the checks that span keys;
    raises ValidationError naming the key, or returns cfg as it is."""
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    cmd = cfg.get("command")
    if not isinstance(cmd, str) or cmd not in _TABLES:
        raise ValidationError(f"command must be one of {sorted(_TABLES)}, got {cmd!r}")
    _walk(cfg, "", _TABLES[cmd])
    # a boundary model trains on the grid of curve, a source model on points
    other = {"boundary": "points", "source": "curve"}.get(cfg.get("model", {}).get("kind"))
    if other in cfg:
        raise ValidationError(f"unknown keys in 'the config': ['{other}'] for this model.kind")
    suite = cfg.get("suite", {})
    if "eval_lo" in suite and "eval_hi" in suite and suite["eval_lo"] >= suite["eval_hi"]:
        raise ValidationError(f"suite.eval_lo={suite['eval_lo']} must be below "
                              f"suite.eval_hi={suite['eval_hi']}")
    return cfg


def _walk(value, where, table):
    """Checks value against table: a rule, a section {key: table} or _Kinds.
    A section admits the keys of its table and no others."""
    if callable(table):
        return table(value, where)
    if not isinstance(value, dict):
        raise ValidationError(f"{where}={value!r} must be a JSON object")
    if isinstance(table, _Kinds):
        table = table.table(value, where)
    unknown = set(value) - set(table)
    if unknown:
        raise ValidationError(f"unknown keys in '{where or 'the config'}': {sorted(unknown)}")
    for key, rule in table.items():
        path = f"{where}.{key}" if where else key
        if key in value:
            _walk(value[key], path, rule)
        elif path in _REQUIRED:
            raise ValidationError(f"{path} is missing")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_manifest(out, cfg, artifacts):
    import numpy
    import scipy
    from . import __version__
    manifest = {
        "command": cfg["command"],
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "seed": cfg.get("seed"),
        "version": __version__,
        "artifacts": sorted(artifacts),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _build_curve_grid(section):
    """The n_bd-node boundary grid on the curve of a curve section."""
    from .geometry import make_curve, sample_quadrature
    params = {k: v for k, v in section.items() if k not in ("kind", "n_bd")}
    return sample_quadrature(make_curve(section.get("kind", "square"), **params),
                             section.get("n_bd", _DEFAULT_N_BD))


def cmd_datagen(cfg, out):
    from . import datagen
    d = cfg["dataset"]
    kappas = _kappa_list(d["kappas"], "dataset.kappas")
    seed = cfg.get("seed", 0)
    kind = d["kind"]
    if kind == "boundary":
        # traces read only the parameter nodes, which the petal has at every n_bd
        grid = _build_curve_grid({"kind": "petal", "n_bd": d.get("n_bd", _DEFAULT_N_BD)})
        ds = datagen.build_boundary_dataset(
            kappas, d.get("n_g", 2000), grid, seed,
            **{k: d[k] for k in ("length_scales", "coupled") if k in d})
    elif kind == "source":
        ds = datagen.build_source_dataset(
            kappas, d.get("per_kappa", 2000), d.get("n", _DEFAULT_N), seed,
            **{k: d[k] for k in ("mix", "sigma_range", "coupled") if k in d})
    else:                     # the points of a petal source model on that curve
        dom, record = _domain({**d, "kind": "petal"}, d.get("n_bd", _DEFAULT_N_BD))
        ds = datagen.build_offlattice_source_dataset(
            kappas, d.get("per_kappa", 500), dom.quad, dom.points, seed)
        ds.provenance["domain"] = record      # what train's points section must name
    path = os.path.join(out, "dataset.bin")
    datagen.save_dataset(ds, path)
    _write_json(os.path.join(out, "summary.json"),
                {"records": ds.n_records, "hash": ds.content_hash(), "kind": kind})
    _write_manifest(out, cfg, ["dataset.bin", "summary.json"])
    return 0


def cmd_train(cfg, out):
    from . import datagen, training
    from .kernels import ScalarKernelSpec, SystemKernelSpec, boundary_kernel
    from .nn import save_checkpoint

    # the model's keys other than the kind are TrainConfig fields
    kind = cfg["model"]["kind"]
    tcfg = training.TrainConfig(seed=cfg.get("seed", 0), **cfg.get("train", {}),
                                **{k: v for k, v in cfg["model"].items() if k != "kind"})
    ds = _load(datagen.load_dataset, cfg["data"]["path"], "data.path")
    kmats, meta = None, {}
    if kind == "boundary":
        curve = cfg.get("curve", {})
        grid = _build_curve_grid(curve)
        meta["grid"] = {"curve": {"kind": grid.curve.kind, **curve, "n_bd": grid.n},
                        "sha256": _grid_sha256(grid)}
        built = {k: ds.provenance.get(k) for k in ("kind", "n_bd")}
        wanted = {"kind": "boundary", "n_bd": grid.n}
        if built != wanted:
            raise ValidationError(f"the dataset was built with {built}, but the "
                                  f"boundary model trains on {wanted}")
        spec_cls = SystemKernelSpec if _coupled_layout(ds, grid.n) else ScalarKernelSpec
        kmats = [boundary_kernel(spec_cls(float(k)), grid) for k in ds.kappas]
        model, info = training.train_boundary_model(tcfg, ds, kmats)
    else:
        domain, meta["domain"] = _domain(cfg.get("points", {}))
        _coupled_layout(ds, len(domain.points))
        prov = ds.provenance
        built = ({"kind": "square", "n": prov.get("n")} if prov.get("kind") == "source"
                 else prov.get("domain"))
        if built != meta["domain"]:
            raise ValidationError(f"the dataset's labels were computed on the points "
                                  f"{built}, but the source model trains on the points "
                                  f"{meta['domain']}")
        model, info = training.train_source_model(tcfg, ds, domain.points)
    metric, errors = training.training_error(model, ds, kmats)
    train_error = {"metric": metric, "per_kappa": errors}
    meta.update(seed=tcfg.seed, epochs=tcfg.epochs, final_loss=info["final_loss"],
                train_error=train_error, loss_tail=info["loss_trace"][-5:],
                data_hash=ds.content_hash(), kappas=[float(k) for k in ds.kappas])
    save_checkpoint(model, os.path.join(out, "model.ckpt"), meta)
    _write_csv(os.path.join(out, "training_curve.csv"), ["step", "loss"],
               info["loss_trace"])
    _write_json(os.path.join(out, "summary.json"),
                {"final_loss": info["final_loss"], "train_error": train_error,
                 "train_seconds": info["train_seconds"]})
    _write_manifest(out, cfg, ["model.ckpt", "training_curve.csv", "summary.json"])
    return 0


def _load(loader, path, key):
    """loader(path); a file that is missing or that loader refuses is a
    ValidationError naming the config key that names it."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def _grid_sha256(grid):
    """The sha256 of a boundary grid's node arrays, the bytes its cache_key holds."""
    return hashlib.sha256(b"".join(grid.cache_key[1:])).hexdigest()


def _check_grid(meta, grid, where):
    """Refuses a boundary checkpoint whose grid record is missing or is not grid's."""
    record = meta.get("grid", {})
    if record.get("sha256") != _grid_sha256(grid):
        raise ValidationError(f"the boundary checkpoint's grid record {record.get('curve')} "
                              f"does not match the boundary grid of {where}")


def _trained_n_bd(meta, kind):
    """The n_bd of a boundary checkpoint's grid record, checked against the curve
    rules, on a curve of kind, else _DEFAULT_N_BD, which _check_grid refuses: the
    square's edges may not split another curve's n_bd."""
    _walk(meta.get("grid", {}), "the boundary checkpoint's grid", _GRID_RECORD)
    curve = meta.get("grid", {}).get("curve", {})
    return (curve if curve.get("kind") == kind else {}).get("n_bd", _DEFAULT_N_BD)


def _domain(points, n_bd=_DEFAULT_N_BD):
    """(domain, record): the evolution domain of a points section or a domain record
    with n_bd boundary nodes, and the section with its defaults filled in.  A petal
    whose lattice holds no point is a ValidationError naming the record."""
    from .evolution import PointCloudDomain, SquareLatticeDomain
    from .geometry import make_curve, petal_lattice
    if points.get("kind", "square") == "square":
        record = {"kind": "square", "n": points.get("n", _DEFAULT_N)}
        return SquareLatticeDomain(record["n"], n_bd), record
    curve = make_curve("petal", **{k: v for k, v in points.items() if k in _PETAL})
    spacing = points.get("spacing", 0.03)
    record = {"kind": "petal", "base": curve.base, "amp": curve.amp, "lobes": curve.lobes,
              "spacing": spacing, "margin": points.get("margin", spacing)}
    try:
        interior = petal_lattice(curve, spacing, record["margin"])
    except ValueError as exc:     # the lattice leaves no point the margin clears
        raise ValidationError(f"the petal points {record}: {exc}") from exc
    return PointCloudDomain(curve, interior, n_bd), record


def _coupled_layout(ds, n):
    """Whether the dataset's records hold 2 n values (coupled) or n (scalar)."""
    width = (ds.g if ds.g is not None else ds.f).shape[-1]
    if width not in (n, 2 * n):
        raise ValidationError(f"the dataset's records hold {width} values, neither "
                              f"{n} (scalar) nor {2 * n} (coupled)")
    return width == 2 * n


_ERROR_COLUMNS = ["case", "abs_l2", "abs_linf", "rel_l2", "rel_linf"]


def cmd_eval(cfg, out):
    from .experiments import EVAL_SUITES
    from .geometry import make_curve, sample_quadrature
    from .nn import BoundaryModel, load_checkpoint

    model, meta = _load(load_checkpoint, cfg["checkpoint"], "checkpoint")
    options = dict(cfg["suite"])
    kappas = _kappa_list(options.pop("kappas"), "suite.kappas")
    if isinstance(model, BoundaryModel):     # the suites' exact fields are on the unit square
        grid = options["grid"] = sample_quadrature(make_curve("square"),
                                                   _trained_n_bd(meta, "square"))
        _check_grid(meta, grid, "the unit square")
        kind = ("system" if model.nn_g.dims[0] == 2 * grid.n else "scalar") + "-boundary"
    elif options:
        raise ValidationError(f"suite keys {sorted(options)} apply to boundary checkpoints, "
                              f"but {cfg['checkpoint']} is a source checkpoint")
    else:
        kind = ("system" if model.coupled else "scalar") + "-source"
    rows = EVAL_SUITES[kind](model, kappas, **options)
    _write_csv(os.path.join(out, "errors.csv"), _ERROR_COLUMNS,
               [[row[c] for c in _ERROR_COLUMNS] for row in rows])
    _write_json(os.path.join(out, "summary.json"), {"experiment": kind, "rows": rows})
    _write_manifest(out, cfg, ["errors.csv", "summary.json"])
    return 0


def _build_backend(section, equation):
    """The backend for equation; learned ones are coupled for Schrodinger only and
    take their domain, grid and lambda range from the checkpoints' records."""
    from .evolution import ClassicalBackend, NekmBackend, SquareLatticeDomain
    from .nn import load_checkpoint

    if section.get("kind", "classical") == "classical":
        return ClassicalBackend(SquareLatticeDomain(section.get("n", _DEFAULT_N),
                                                    _DEFAULT_N_BD))
    bnd, bnd_meta = _load(load_checkpoint, section["boundary_checkpoint"],
                          "backend.boundary_checkpoint")
    src, src_meta = _load(load_checkpoint, section["source_checkpoint"],
                          "backend.source_checkpoint")
    # the lambda range is the overlap of the kappa spans the checkpoints record
    if not (bnd_meta.get("kappas") and src_meta.get("kappas")):
        raise ValidationError("a learned backend needs checkpoints that record "
                              "the kappas they were trained on")
    spans = [(min(m["kappas"]), max(m["kappas"])) for m in (bnd_meta, src_meta)]
    lam_range = (max(s[0] for s in spans), min(s[1] for s in spans))
    if lam_range[0] > lam_range[1]:
        raise ValidationError(f"checkpoint kappa spans {spans} do not overlap")
    record = src_meta.get("domain")
    if record is None:
        raise ValidationError("a learned backend needs a source checkpoint's domain record")
    _walk(record, "the source checkpoint's domain", _TABLES["train"]["points"])
    domain, _ = _domain(record, _trained_n_bd(bnd_meta, record.get("kind", "square")))
    _check_grid(bnd_meta, domain.quad, f"the source checkpoint's domain {record}")
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
    fld = np.ravel(fld)           # a heat field is a one-row batch
    if np.iscomplexobj(fld):
        _write_csv(path, ["x", "y", "re", "im"], np.column_stack([pts, fld.real, fld.imag]))
    else:
        _write_csv(path, ["x", "y", "u"], np.column_stack([pts, fld]))


def cmd_evolve(cfg, out):
    import numpy as np
    from .evolution import BackendRangeError, trajectory_rel_l2
    from .experiments import EQUATIONS
    from .plotting import svg_heatmap

    p = dict(cfg["problem"])
    eq, tau, n_steps = p.pop("equation"), p.pop("tau"), p.pop("n_steps")
    backend = _build_backend(cfg["backend"], eq)
    # the theta-scheme's second step takes a 5-point Laplacian, which only the lattice has
    if eq == "wave" and n_steps > 1 and not hasattr(backend.domain, "n"):
        raise ValidationError(f"problem.n_steps={n_steps}: a wave run on a petal takes one step")
    build, run, options = EQUATIONS[eq]
    # store_fields and the stepper's keys go to the stepper, the rest to the builder
    to_run = {k: p.pop(k) for k in ("store_fields", *options) if k in p}
    try:
        res = run(build(backend.domain, tau, n_steps, **p), backend, **to_run)
    except BackendRangeError as exc:  # the step's lam is outside the checkpoints' kappas
        raise ValidationError(f"problem.tau={tau}: {exc}") from exc
    trace_columns = ["t", "abs_l2", "abs_linf", "rel_l2"]
    _write_csv(os.path.join(out, "error_trace.csv"), trace_columns,
               [[e[c] for c in trace_columns] for e in res.error_trace])
    pts = backend.domain.points
    _write_field_csv(os.path.join(out, "final_field.csv"), pts, res.final)
    artifacts = ["error_trace.csv", "final_field.csv", "summary.json"]
    for step, fld in res.fields.items():
        name = f"field_step_{step:04d}.csv"
        _write_field_csv(os.path.join(out, name), pts, fld)
        artifacts.append(name)
    if hasattr(backend.domain, "n"):
        n = backend.domain.n
        svg_heatmap(os.path.join(out, "final_field.svg"), np.real(res.final).reshape(n, n),
                    title=f"{eq} final field")
        artifacts.append("final_field.svg")
    # the label names the scheme that the run recorded, defaults included
    scheme = res.meta.get("scheme", res.meta.get("splitting", ""))
    summary = {"experiment": f"{eq}-{scheme}", "tau": tau, "n_steps": n_steps,
               "final_rel_l2": res.error_trace[-1]["rel_l2"],
               "trajectory_rel_l2": trajectory_rel_l2(res)}
    _write_json(os.path.join(out, "summary.json"), summary)
    _write_manifest(out, cfg, artifacts)
    return 0


def cmd_uq(cfg, out):
    import numpy as np
    from .evolution import BackendRangeError, uq_run

    backend = _build_backend(cfg["backend"], "heat")
    if not hasattr(backend.domain, "n"):    # uq's probe interpolates the square lattice
        raise ValidationError("uq runs on the square lattice, not on a petal source checkpoint")
    u = dict(cfg["uq"])
    try:
        stats, hist = uq_run(backend, u.pop("samples", 10000), cfg.get("seed", 0), **u)
    except BackendRangeError as exc:  # the step's lam is outside the checkpoints' kappas
        raise ValidationError(f"uq.tau: {exc}") from exc
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


# the BLAS and OpenMP thread variables that --threads sets and the manifest records
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

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
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise ValidationError(f"--threads={args.threads} must be at least 1")
            for var in _THREAD_VARS:
                os.environ[var] = str(args.threads)
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
    made, head = [], os.path.abspath(out)   # the directories made here, leaf first
    while not os.path.isdir(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(out, exist_ok=True)
    try:
        return _COMMANDS[cfg["command"]](cfg, out)
    except ValidationError as exc:  # config checks that need loaded inputs
        for path in made:           # they run before the first write
            os.rmdir(path)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> exit 1 with message
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
