"""End-to-end CLI runs on tiny configurations."""

import csv
import hashlib
import json
import os
import resource

import numpy as np
import pytest
import scipy

from evokernel import cli


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validation_rejects_unknown_keys(tmp_path, capsys):
    cfg = {"version": 1, "command": "datagen", "seed": 0, "bogus": 1,
           "dataset": {"kind": "boundary", "kappas": [0.05]}}
    rc = cli.main(["datagen", "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_validation_rejects_bad_theta(tmp_path, capsys):
    for theta in (1.5, 0):
        cfg = {"version": 1, "command": "evolve", "seed": 0,
               "problem": {"equation": "wave", "tau": 0.25, "n_steps": 2,
                           "theta": theta},
               "backend": {"kind": "classical", "n": 21}}
        rc = cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "(0, 1]" in err and f"theta={theta}" in err


@pytest.mark.parametrize("seed", [2.5, True, -1, "0"])
def test_validation_rejects_bad_seed(tmp_path, capsys, seed):
    cfg = {"version": 1, "command": "datagen", "seed": seed, "out": str(tmp_path / "run"),
           "dataset": {"kind": "source", "kappas": [0.05], "per_kappa": 2, "n": 9}}
    rc = cli.main(["datagen", "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "seed" in err and repr(seed) in err
    assert not (tmp_path / "run").exists()


_CLASSICAL = {"kind": "classical", "n": 9}


@pytest.mark.parametrize("section, value, key", [
    ("backend", {**_CLASSICAL, "n_bd": 32}, "n_bd"),
    ("backend", {**_CLASSICAL, "domain": {"n": 9}}, "domain"),
    ("problem", {"equation": "wave", "tau": 0.25, "n_steps": 2, "b": 0.3}, "b"),
    ("problem", {"equation": "heat", "tau": 0.25, "n_steps": 2, "b": 2**-0.5}, "b"),
    ("backend", {**_CLASSICAL, "lam_range": [0.05, 0.1]}, "lam_range"),
    ("backend", {**_CLASSICAL, "coupled": True}, "coupled"),
    ("backend", {**_CLASSICAL, "source_checkpoint": "s.ckpt"}, "source_checkpoint"),
    *[("backend", {"kind": "nekm", "boundary_checkpoint": "b.ckpt",
                   "source_checkpoint": "s.ckpt", key: value}, key)
      for key, value in (("lam_range", [0.05, 0.1]), ("coupled", True), ("n", 9),
                         ("domain", {"n": 9, "n_bd": 32}))],
])
def test_validation_rejects_keys_of_other_kinds(tmp_path, capsys, section, value, key):
    cfg = {"version": 1, "command": "evolve", "seed": 0,
           "problem": {"equation": "heat", "tau": 0.25, "n_steps": 2},
           "backend": _CLASSICAL, section: value}
    rc = cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert f"[{key!r}]" in capsys.readouterr().err


_DATASET_KEYS = {
    "boundary": {"n_g": 4, "n_bd": 18, "length_scales": [0.4], "coupled": True},
    "source": {"per_kappa": 2, "n": 9, "mix": 1.0, "sigma_range": [1, 4], "coupled": True},
    "source-offlattice": {"per_kappa": 2, "n_bd": 18, "base": 0.5, "amp": 0.2, "lobes": 4,
                          "spacing": 0.1, "margin": 0.1},
}
_MODEL_KEYS = {
    "boundary": {"internal": 8},
    "source": {"hidden_k": [4], "hidden_g": [4]},
}


def _dataset_or_model_config(tmp_path, section, value):
    if section == "dataset":
        return {"version": 1, "command": "datagen", "seed": 0, "out": str(tmp_path / "run"),
                "dataset": {"kappas": [0.05], **value}}
    # a model section, a top-level curve section in a boundary-model train config
    # or a points section in a source-model one
    model = {"kind": "source" if section == "points" else "boundary"}
    return {"version": 1, "command": "train", "seed": 0, "out": str(tmp_path / "run"),
            "data": {"path": str(tmp_path / "d.bin")}, "model": model, section: value}


@pytest.mark.parametrize("section, kind", [
    *[("dataset", kind) for kind in _DATASET_KEYS],
    *[("model", kind) for kind in _MODEL_KEYS],
])
def test_validation_accepts_every_dataset_and_model_key(tmp_path, section, kind):
    keys = (_DATASET_KEYS if section == "dataset" else _MODEL_KEYS)[kind]
    cfg = _dataset_or_model_config(tmp_path, section, {"kind": kind, **keys})
    assert cli.validate_config(cfg) is cfg


@pytest.mark.parametrize("section, value, message", [
    ("dataset", {"kind": "boundary", "per_kappa": 2}, "['per_kappa']"),
    ("dataset", {"kind": "boundary", "sigma_range": [1, 4]}, "['sigma_range']"),
    ("dataset", {"kind": "source", "n_g": 4}, "['n_g']"),
    ("dataset", {"kind": "source", "curve": {"kind": "disk"}}, "['curve']"),
    ("dataset", {"kind": "source-offlattice", "coupled": True}, "['coupled']"),
    ("dataset", {"kind": "source-offlattice", "n": 9}, "['n']"),
    ("dataset", {"kind": "sourc"}, "'sourc' in 'dataset.kind'"),
    ("model", {"kind": "boundary", "hidden_k": [4]}, "['hidden_k']"),
    ("model", {"kind": "boundary", "width": 8}, "['width']"),
    ("model", {"kind": "source", "internal": 8}, "['internal']"),
    ("model", {"kind": "source", "latent": 8}, "['latent']"),
    ("model", {"kind": "branch_trunk"}, "'branch_trunk' in 'model.kind'"),
    ("model", {"kind": "source", "depth": 2}, "['depth']"),
    ("model", {"coupled": True}, "None in 'model.kind'"),
    ("model", {"kind": "boundary", "coupled": True}, "['coupled']"),
    ("model", {"kind": "source", "coupled": False}, "['coupled']"),
    ("dataset", {"kind": "boundary", "curve": {"kind": "square", "n_bd": 32}}, "['curve']"),
    ("dataset", {"kind": "boundary", "lobes": 4}, "['lobes']"),
    ("dataset", {"kind": "source-offlattice", "curve": {"kind": "petal"}}, "['curve']"),
    ("curve", {"kind": "disc"}, "'disc' in 'curve.kind'"),
    ("curve", {"kind": "disk"}, "'disk' in 'curve.kind'"),
    ("curve", {"kind": "square", "radius": 2}, "['radius']"),
    ("curve", {"kind": "square", "side": 2}, "['side']"),
    ("curve", {"kind": "petal", "side": 2}, "['side']"),
    ("points", {"kind": "square", "spacing": 0.1}, "['spacing']"),
    ("points", {"kind": "petal", "n": 9}, "['n']"),
    ("points", {"kind": "disk"}, "'disk' in 'points.kind'"),
])
def test_validation_rejects_dataset_and_model_keys_of_other_kinds(tmp_path, capsys, section,
                                                                   value, message):
    cfg = _dataset_or_model_config(tmp_path, section, value)
    rc = cli.main([cfg["command"], "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


_GEOMETRY = {"curve": {"kind": "square", "n_bd": 32}, "points": {"kind": "square", "n": 9}}


@pytest.mark.parametrize("model, own, other", [
    ("boundary", "curve", "points"), ("source", "points", "curve")])
def test_each_model_kind_refuses_the_other_geometry_section(tmp_path, capsys, model, own,
                                                            other):
    """A boundary model trains on the grid of curve, a source model on points:
    the other section would be ignored, so it is a config error naming it."""
    cfg = _dataset_or_model_config(tmp_path, own, _GEOMETRY[own])
    cfg["model"] = {"kind": model}
    assert cli.validate_config(cfg) is cfg
    cfg[other] = _GEOMETRY[other]
    rc = cli.main(["train", "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"[{other!r}]" in err and "model.kind" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, value, name", [
    ("backend", {**_CLASSICAL, "kind": "learnd"}, "'learnd' in 'backend.kind'"),
    ("backend", {**_CLASSICAL, "kind": ["classical"]}, "backend.kind"),
    ("problem", {"equation": ["heat"], "tau": 0.25, "n_steps": 1}, "equation"),
])
def test_validation_rejects_unknown_kinds(tmp_path, capsys, section, value, name):
    cfg = {"version": 1, "command": "evolve", "seed": 0,
           "problem": {"equation": "heat", "tau": 0.25, "n_steps": 1},
           "backend": _CLASSICAL, section: value}
    rc = cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("section, value, key", [
    ("dataset", {"kind": "boundary", "n_bd": 4}, "dataset.n_bd"),
    ("dataset", {"kind": "boundary", "n_bd": 32.0}, "dataset.n_bd"),
    ("dataset", {"kind": "source-offlattice", "n_bd": 7}, "dataset.n_bd"),
    ("dataset", {"kind": "source-offlattice", "amp": 1}, "dataset.amp"),
    ("dataset", {"kind": "source", "n": 2}, "dataset.n"),
    ("curve", {"kind": "petal", "base": "1"}, "curve.base"),
    ("curve", {"kind": "petal", "amp": float("nan")}, "curve.amp"),
    ("curve", {"kind": "square", "n_bd": 32.0}, "curve.n_bd"),
    ("curve", {"kind": "square", "n_bd": 30}, "curve.n_bd"),
    ("backend", {"kind": "classical", "n": 2}, "backend.n"),
    ("points", {"kind": "square", "n": 2}, "points.n"),
    ("points", {"kind": "petal", "amp": 1}, "points.amp"),
    ("points", {"kind": "petal", "lobes": True}, "points.lobes"),
])
def test_validation_rejects_bad_curve_and_domain_values(tmp_path, capsys, section, value,
                                                        key):
    if section == "backend":
        cfg = {"version": 1, "command": "evolve", "seed": 0, "out": str(tmp_path / "run"),
               "problem": {"equation": "heat", "tau": 0.25, "n_steps": 1}, "backend": value}
    else:
        cfg = _dataset_or_model_config(tmp_path, section, value)
    rc = cli.main([cfg["command"], "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert f"{key}=" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# a value other than the default for every problem key of each equation
_PROBLEM_KEYS = {
    "heat": {"scheme": "cn", "a": 0.6},
    "wave": {"a": 0.3, "theta": 0.75},
    "schrodinger": {"splitting": "lie", "w": 0.5},
}


@pytest.mark.parametrize("equation, experiment", [
    ("heat", "heat-cn"), ("wave", "wave-"), ("schrodinger", "schrodinger-lie")])
def test_evolve_runs_on_the_smallest_valid_lattice(tmp_path, equation, experiment):
    """Each equation runs with every problem key that cli._TABLES admits, so
    the table and the problem builders and steppers take the same keys."""
    problem = {"equation": equation, "tau": 0.1, "n_steps": 2, "store_fields": True,
               **_PROBLEM_KEYS[equation]}
    assert set(problem) == set(cli._TABLES["evolve"]["problem"].table(problem, "problem"))
    cfg = {"version": 1, "command": "evolve", "seed": 0, "out": str(tmp_path / "run"),
           "problem": problem, "backend": {"kind": "classical", "n": 3}}
    assert cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)]) == 0
    assert (tmp_path / "run" / "field_step_0002.csv").exists()
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["experiment"] == experiment


@pytest.mark.parametrize("equation", ["heat", "wave", "schrodinger"])
def test_equations_split_the_problem_keys_between_builder_and_stepper(equation):
    """The stepper's keyword parameters, less store_fields, are its EQUATIONS
    options, and the builder's are the rest of the equation's problem keys,
    less those that cmd_evolve passes itself."""
    import inspect

    from evokernel.experiments import EQUATIONS
    build, run, options = EQUATIONS[equation]

    def keywords(fn):
        params = inspect.signature(fn).parameters.values()
        return [p.name for p in params if p.default is not p.empty]

    assert list(inspect.signature(build).parameters)[:3] == ["domain", "tau", "n_steps"]
    assert list(inspect.signature(run).parameters)[:2] == ["prob", "backend"]
    assert "store_fields" in keywords(run)
    assert set(keywords(run)) - {"store_fields"} == set(options)
    table = cli._PROBLEM.table({"equation": equation}, "problem")
    assert set(options) <= set(table)
    assert set(keywords(build)) == (set(table) - {"equation", "tau", "n_steps", "store_fields"}
                                    - set(options))


def test_every_readme_config_is_valid():
    """Every JSON config block in the README passes validate_config, and they
    show every command, and evolve and uq on the learned backend."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = fh.read().split("```json\n")[1:]
    configs = [json.loads(block.split("```")[0]) for block in blocks]
    for cfg in configs:
        assert cli.validate_config(cfg) is cfg
    assert {cfg["command"] for cfg in configs} == set(cli._TABLES)
    assert {cfg["command"] for cfg in configs
            if cfg.get("backend", {}).get("kind") == "nekm"} == {"evolve", "uq"}


def test_validation_accepts_every_learned_backend_key():
    cfg = {"version": 1, "command": "uq", "seed": 0, "uq": {"samples": 2},
           "backend": {"kind": "nekm", "boundary_checkpoint": "b.ckpt",
                       "source_checkpoint": "s.ckpt"}}
    assert cli.validate_config(cfg) is cfg


@pytest.mark.parametrize("problem, key", [
    ({"equation": "heat", "a": 1.5}, "a"),
    ({"equation": "heat", "a": -1.0000001}, "a"),
    ({"equation": "wave", "a": 1.2}, "a"),
    ({"equation": "wave", "a": "0.5"}, "a"),
    ({"equation": "wave", "theta": "0.5"}, "theta"),
    ({"equation": "heat", "scheme": "rk4"}, "scheme"),
    ({"equation": "schrodinger", "splitting": "yoshida"}, "splitting"),
    ({"equation": "heat", "n_steps": 2.5}, "n_steps"),
    ({"equation": "heat", "n_steps": 0}, "n_steps"),
    ({"equation": "wave", "n_steps": True}, "n_steps"),
    ({"equation": "heat", "n_steps": "2"}, "n_steps"),
    ({"equation": "heat", "tau": "0.1"}, "tau"),
    ({"equation": "wave", "tau": 0}, "tau"),
    ({"equation": "heat", "tau": -0.1}, "tau"),
    ({"equation": "schrodinger", "tau": float("inf")}, "tau"),
    ({"equation": "heat", "tau": None}, "tau"),
    ({"equation": "heat", "store_fields": "no"}, "store_fields"),
    ({"equation": "heat", "store_fields": 1}, "store_fields"),
])
def test_validation_rejects_bad_problem_numbers(tmp_path, capsys, problem, key):
    cfg = {"version": 1, "command": "evolve", "seed": 0, "out": str(tmp_path / "run"),
           "problem": {"tau": 0.25, "n_steps": 1, **problem}, "backend": _CLASSICAL}
    rc = cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert f"problem.{key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("problem", [
    {"equation": "heat", "a": -1.0},
    {"equation": "wave", "a": 1.0},
])
def test_validation_accepts_wave_numbers_on_the_unit_circle(problem):
    cfg = {"version": 1, "command": "evolve", "seed": 0,
           "problem": {"tau": 0.25, "n_steps": 1, **problem}, "backend": _CLASSICAL}
    assert cli.validate_config(cfg) is cfg


@pytest.mark.parametrize("kind", ["source", "boundary"])
@pytest.mark.parametrize("kappas", [
    [-0.05, 0.05], [0.0], [0.05, float("nan")], [float("inf")],
    {"start": -0.05, "stop": 0.05, "count": 3}, {"start": 0.0, "stop": 0.1, "count": 2},
    [], {"start": 0.05, "stop": 0.1, "count": 0},
    {"start": 0.05, "stop": 0.1, "count": 2, "typo": 9},
    {"start": 0.05, "stop": 0.1, "count": True}, {"start": 0.05, "stop": 0.1, "count": 2.5},
    {"start": 0.05, "stop": 0.1, "count": "2"}, {"start": 0.05, "stop": 0.1, "count": -1},
    {"start": "x", "stop": 0.1, "count": 2}, {"start": 0.05, "count": 2},
    {"start": 0.05, "stop": float("inf"), "count": 2},
])
def test_validation_rejects_non_positive_kappas(tmp_path, capsys, kind, kappas):
    out = tmp_path / "run"
    cfg = {"version": 1, "command": "datagen", "seed": 0, "out": str(out),
           "dataset": {"kind": kind, "kappas": kappas,
                       **({"n_g": 1} if kind == "boundary" else {"per_kappa": 1, "n": 9})}}
    rc = cli.main(["datagen", "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert "dataset.kappas" in capsys.readouterr().err
    assert not out.exists()


def test_datagen_source_reads_sigma_range(tmp_path):
    hashes = []
    for run, extra in (("default", {}), ("low", {"sigma_range": [1.0, 4.0]}),
                       ("high", {"sigma_range": [5.0, 9.0]})):
        out = tmp_path / run
        cfg = {"version": 1, "command": "datagen", "seed": 0, "out": str(out),
               "dataset": {"kind": "source", "kappas": [0.05], "per_kappa": 2, "n": 9,
                           "mix": 1.0, **extra}}
        assert cli.main(["datagen", "--config", _write(tmp_path, f"{run}.json", cfg)]) == 0
        hashes.append(json.loads((out / "summary.json").read_text())["hash"])
    assert hashes[0] == hashes[1] != hashes[2]


def test_datagen_boundary_uses_library_length_scales(tmp_path):
    """A boundary dataset of n_bd nodes is the library's build, with its default
    length scales, on the unit square's grid of n_bd nodes."""
    from evokernel import datagen
    from evokernel.geometry import make_curve, sample_quadrature
    out = tmp_path / "run"
    cfg = {"version": 1, "command": "datagen", "seed": 4, "out": str(out),
           "dataset": {"kind": "boundary", "kappas": [0.05, 0.1], "n_g": 6, "n_bd": 32}}
    assert cli.main(["datagen", "--config", _write(tmp_path, "b.json", cfg)]) == 0
    grid = sample_quadrature(make_curve("square"), 32)
    ds = datagen.build_boundary_dataset([0.05, 0.1], 6, grid, 4)
    assert json.loads((out / "summary.json").read_text())["hash"] == ds.content_hash()
    assert datagen.load_dataset(str(out / "dataset.bin")).provenance == ds.provenance


def test_validation_accepts_a_positive_kappa_range():
    cfg = {"version": 1, "command": "datagen", "seed": 0,
           "dataset": {"kind": "source", "kappas": {"start": 0.05, "stop": 0.1, "count": 3}}}
    assert cli.validate_config(cfg) is cfg


_UQ = {"samples": 2, "tau": 0.1, "n_steps": 1}


@pytest.mark.parametrize("cmd, section, value, key", [
    ("uq", "uq", {**_UQ, "probe": [-0.5, 0.2]}, "uq.probe"),
    ("uq", "uq", {**_UQ, "probe": [0.43, 1.01]}, "uq.probe"),
    ("uq", "uq", {**_UQ, "probe": [0.43]}, "uq.probe"),
    ("uq", "uq", {**_UQ, "clip": [0.2, 1.2]}, "uq.clip"),
    ("uq", "uq", {**_UQ, "clip": [-1.5, 0.5]}, "uq.clip"),
    *[("eval", "suite", {"kappas": [0.05], key: value}, key)
      for key, value in (("kind", "scalar-boundary"), ("n_bd", 32))],
    ("eval", "suite", {"kappas": [0.0, 0.05]}, "suite.kappas"),
    ("eval", "suite", {"kappas": {"start": 0.05}}, "suite.kappas"),
    ("eval", "suite", {"kappas": []}, "suite.kappas"),
    ("eval", "suite", {"kappas": {"start": 0.05, "stop": 0.1, "count": 2, "typo": 9}},
     "suite.kappas"),
    ("eval", "suite", {"kappas": {"start": 0.05, "stop": 0.1, "count": True}}, "suite.kappas"),
    *[("eval", "suite", {"kappas": {"start": 0.05, "stop": 0.1, "count": count}}, "suite.kappas")
      for count in (0, 2.5, "2")],
])
def test_validation_rejects_bad_uq_and_suite_keys(tmp_path, capsys, cmd, section, value, key):
    base = ({"backend": _CLASSICAL, "uq": _UQ} if cmd == "uq"
            else {"checkpoint": str(tmp_path / "m.ckpt")})
    cfg = {"version": 1, "command": cmd, "seed": 0, "out": str(tmp_path / "run"),
           **base, section: value}
    rc = cli.main([cmd, "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert key in capsys.readouterr().err


# the smallest valid config of each command, which the table walk starts from
_MINIMAL = {
    "datagen": {"dataset": {"kind": "source", "kappas": [0.05]}},
    "train": {"model": {"kind": "boundary"}, "data": {"path": "d.bin"}},
    "eval": {"checkpoint": "m.ckpt", "suite": {"kappas": [0.05]}},
    "evolve": {"problem": {"equation": "heat", "tau": 0.1, "n_steps": 1},
               "backend": {"kind": "nekm", "boundary_checkpoint": "b.ckpt",
                           "source_checkpoint": "s.ckpt"}},
    "uq": {"backend": {}, "uq": {}},
    "report": {},
}
# valid values of the required keys of a kind
_REQUIRED_VALUES = {"kappas": [0.05], "tau": 0.1, "n_steps": 1, "boundary_checkpoint": "b.ckpt",
             "source_checkpoint": "s.ckpt"}
_STRINGS = {"command", "out", "path", "checkpoint", "boundary_checkpoint", "source_checkpoint"}
_BOOLEANS = {"coupled", "store_fields"}


def _table_leaves(table, path=(), picks=()):
    """(path, picks) of every leaf key under a command table; picks holds
    (section path, _Kinds, kind) for each kinded section on the way."""
    if isinstance(table, cli._Kinds):
        yield path + (table.key,), picks
        for i, (kind, keys) in enumerate(table.kinds.items()):
            yield from _table_leaves({**(table.common if i == 0 else {}), **keys}, path,
                                     picks + ((path, table, kind),))
    elif isinstance(table, dict):
        for key, sub in table.items():
            yield from _table_leaves(sub, path + (key,), picks)
    else:
        yield path, picks


def _leaf_config(cmd, path, picks):
    """The minimal config of cmd with each kinded section on path set to its
    pick, holding the keys that kind requires; returns (config, leaf's section)."""
    cfg = {"version": 1, "command": cmd, **json.loads(json.dumps(_MINIMAL[cmd]))}
    for (*parents, name), kinds, kind in picks:
        node = cfg
        for key in parents:
            node = node[key]
        node[name] = {kinds.key: kind, **{
            k: _REQUIRED_VALUES[k] for k in {**kinds.common, **kinds.kinds[kind]}
            if ".".join((*parents, name, k)) in cli._REQUIRED}}
    if cmd == "train" and path[0] == "points":
        cfg["model"] = {"kind": "source"}   # which trains on points, not on a curve
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    return cfg, node


_LEAVES = [(cmd, path, picks, value) for cmd, table in cli._TABLES.items()
           for path, picks in _table_leaves(table) for value in ("x", True)
           if path[-1] not in (_STRINGS if value == "x" else _BOOLEANS)]


@pytest.mark.parametrize("cmd, path, picks, value", _LEAVES, ids=[
    f"{cmd}:{'.'.join(path)}[{','.join(kind for _, _, kind in picks)}]={value}"
    for cmd, path, picks, value in _LEAVES])
def test_every_table_key_refuses_a_value_of_another_type(tmp_path, capsys, cmd, path, picks,
                                                         value):
    """Every key of every command and kind: a string where the rule wants no
    string, or true where it wants no boolean, is a config error naming the
    key's full path."""
    cfg, section = _leaf_config(cmd, path, picks)
    cfg["out"] = str(tmp_path / "run")
    assert cli.validate_config(cfg) is cfg
    section[path[-1]] = value
    rc = cli.main([cmd, "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert ".".join(path) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _key_paths(section, prefix=()):
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_MISSING = [(cmd, path) for cmd in _MINIMAL
            for path in _key_paths({"version": 1, **_MINIMAL[cmd]})
            if ".".join(path) in cli._REQUIRED]


def test_every_required_key_is_in_a_minimal_config():
    assert {".".join(path) for _, path in _MISSING} == cli._REQUIRED


@pytest.mark.parametrize("cmd, path", _MISSING,
                         ids=[f"{cmd}:{'.'.join(path)}" for cmd, path in _MISSING])
def test_validation_requires_the_keys_read_with_no_default(tmp_path, capsys, cmd, path):
    cfg = {"version": 1, "command": cmd, "out": str(tmp_path / "run"),
           **json.loads(json.dumps(_MINIMAL[cmd]))}
    section = cfg
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    rc = cli.main([cmd, "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert f"{'.'.join(path)} is missing" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()

def _base_config(tmp_path, base):
    """Small runnable configs, one per family of the rows below."""
    from evokernel import datagen, nn
    from evokernel.geometry import make_curve, sample_quadrature
    if base == "train-boundary":
        path = str(tmp_path / "b.bin")
        grid = sample_quadrature(make_curve("square"), 16)
        datagen.save_dataset(datagen.build_boundary_dataset([0.05], 2, grid, seed=0), path)
        return {"model": {"kind": "boundary"}, "data": {"path": path},
                "curve": {"kind": "square", "n_bd": 16}, "train": {"epochs": 1}}
    if base == "eval":
        nn.save_checkpoint(nn.BoundaryModel.build(32, np.random.default_rng(0), internal=8),
                           str(tmp_path / "m.ckpt"))
        return {"checkpoint": str(tmp_path / "m.ckpt"),
                "suite": {"kappas": [0.05], "eval_n": 4}}
    if base == "train-source":
        return {k: v for k, v in _source_train_config(tmp_path, {"epochs": 1}).items()
                if k not in ("version", "command", "seed", "out")}
    return json.loads(json.dumps({
        "uq": {"backend": _CLASSICAL, "uq": _UQ},
        "boundary": {"dataset": {"kind": "boundary", "kappas": [0.05], "n_g": 2, "n_bd": 16}},
        "source": {"dataset": {"kind": "source", "kappas": [0.05], "per_kappa": 2, "n": 9}},
        "offlattice": {"dataset": {"kind": "source-offlattice", "kappas": [0.05],
                                   "per_kappa": 2, "n_bd": 16, "spacing": 0.2}},
        "heat": {"problem": {"equation": "heat", "tau": 0.1, "n_steps": 1},
                 "backend": _CLASSICAL},
        "schrodinger": {"problem": {"equation": "schrodinger", "tau": 0.05, "n_steps": 1},
                        "backend": _CLASSICAL},
    }[base]))


_COMMAND = {"uq": "uq", "boundary": "datagen", "source": "datagen", "offlattice": "datagen",
            "heat": "evolve", "schrodinger": "evolve", "train-boundary": "train",
            "train-source": "train", "eval": "eval"}


@pytest.mark.parametrize("base, key, value", [
    *[("uq", "uq.samples", v) for v in (2.5, 0, True)],
    ("uq", "uq.n_steps", 2.5), ("uq", "uq.tau", "0.1"), ("uq", "uq.tau", -1),
    ("uq", "uq.std", -1), ("uq", "uq.mean", "x"),
    *[("boundary", "dataset.n_g", v) for v in (2.5, -3, 0)],
    ("source", "dataset.per_kappa", 2.5), ("source", "dataset.per_kappa", 0),
    ("source", "dataset.mix", 3), ("source", "dataset.mix", -1),
    ("source", "dataset.sigma_range", [-1, 2]), ("source", "dataset.sigma_range", "x"),
    ("source", "dataset.coupled", "yes"), ("boundary", "dataset.length_scales", [-1]),
    ("offlattice", "dataset.spacing", -0.1), ("offlattice", "dataset.spacing", 0),
    ("offlattice", "dataset.margin", "x"),
    ("offlattice", "dataset.base", -1), ("offlattice", "dataset.amp", "x"),
    ("offlattice", "dataset.lobes", 2.5), ("offlattice", "dataset.n_bd", 4),
    ("offlattice", "dataset.base", 0), ("offlattice", "dataset.amp", 1.0),
    ("offlattice", "dataset.lobes", 0), ("offlattice", "dataset.margin", -0.1),
    ("boundary", "dataset.n_bd", 4),
    ("schrodinger", "problem.w", -1), ("schrodinger", "problem.w", "x"),
    *[("train-source", "model.hidden_k", v) for v in ([0], "x", [2.5])],
    ("train-boundary", "model.internal", -1),
    ("train-source", "points.n", 2.5), ("train-source", "points.kind", "circle"),
    ("eval", "suite.eval_n", 0), ("eval", "suite.eval_lo", "x"), ("eval", "suite.eval_hi", 1.5),
])
def test_validation_rejects_values_that_ran_or_failed_at_run_time(tmp_path, capsys, base, key,
                                                                   value):
    cmd = _COMMAND[base]
    cfg = {"version": 1, "command": cmd, "seed": 0, "out": str(tmp_path / "run"),
           **_base_config(tmp_path, base)}
    *parents, name = key.split(".")
    section = cfg
    for k in parents:
        section = section[k]
    section[name] = value
    rc = cli.main([cmd, "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_datagen_train_eval_pipeline(tmp_path):
    d1 = tmp_path / "data"
    cfg = {"version": 1, "command": "datagen", "seed": 3, "out": str(d1),
           "dataset": {"kind": "boundary", "kappas": [0.05, 0.1], "n_g": 8, "n_bd": 32}}
    assert cli.main(["datagen", "--config", _write(tmp_path, "d.json", cfg)]) == 0
    assert (d1 / "dataset.bin").exists() and (d1 / "manifest.json").exists()

    m1 = tmp_path / "model"
    cfg = {"version": 1, "command": "train", "seed": 5, "out": str(m1),
           "model": {"kind": "boundary", "internal": 24},
           "data": {"path": str(d1 / "dataset.bin")},
           "curve": {"kind": "square", "n_bd": 32},
           "train": {"epochs": 40, "batch_size": 8, "log_every": 10}}
    assert cli.main(["train", "--config", _write(tmp_path, "t.json", cfg)]) == 0
    assert (m1 / "model.ckpt").exists()
    curve_rows = (m1 / "training_curve.csv").read_text().strip().splitlines()
    assert curve_rows[0] == "step,loss"
    # the boundary data have no labels: the training error is the relative
    # BIE residual of the predicted densities
    from evokernel import bie, datagen
    from evokernel.geometry import make_curve, sample_quadrature
    from evokernel.kernels import ScalarKernelSpec, boundary_kernel
    from evokernel.nn import load_checkpoint
    model, meta = load_checkpoint(str(m1 / "model.ckpt"))
    assert meta["grid"] == {"curve": {"kind": "square", "n_bd": 32},
                            "sha256": _grid_record({"n_bd": 32})["sha256"]}
    error = json.loads((m1 / "summary.json").read_text())["train_error"]
    assert meta["train_error"] == error and error["metric"] == "rel_bie_residual"
    ds = datagen.load_dataset(str(d1 / "dataset.bin"))
    grid = sample_quadrature(make_curve("square"), 32)
    for ik, k in enumerate(ds.kappas):
        g = ds.g[ds.kappa_index == ik]
        r = bie.bie_residual(boundary_kernel(ScalarKernelSpec(float(k)), grid),
                             model.predict(k, g), g)
        assert error["per_kappa"][ik] == np.linalg.norm(r) / np.linalg.norm(g)

    e1 = tmp_path / "eval"
    cfg = {"version": 1, "command": "eval", "seed": 0, "out": str(e1),
           "checkpoint": str(m1 / "model.ckpt"),
           "suite": {"kappas": [0.067], "eval_n": 8}}
    assert cli.main(["eval", "--config", _write(tmp_path, "e.json", cfg)]) == 0
    rows = (e1 / "errors.csv").read_text().strip().splitlines()
    assert rows[0] == "case,abs_l2,abs_linf,rel_l2,rel_linf"
    assert rows[1].startswith("kappa=0.067,")


def _boundary_data(tmp_path):
    """The path of a boundary dataset of 32 nodes, made by evokernel datagen."""
    data = tmp_path / "data"
    cfg = {"version": 1, "command": "datagen", "seed": 0, "out": str(data),
           "dataset": {"kind": "boundary", "kappas": [0.05, 0.1], "n_g": 4, "n_bd": 32}}
    assert cli.main(["datagen", "--config", _write(tmp_path, "d.json", cfg)]) == 0
    return str(data / "dataset.bin")


def _train_boundary(tmp_path, data, curve, out="bmodel"):
    """(exit code, checkpoint path) of evokernel train on a boundary dataset, with
    the curve section curve (None: no section)."""
    cfg = {"version": 1, "command": "train", "seed": 0, "out": str(tmp_path / out),
           "model": {"kind": "boundary", "internal": 8}, "data": {"path": data},
           "train": {"epochs": 1, "batch_size": 4}, **({"curve": curve} if curve else {})}
    rc = cli.main(["train", "--config", _write(tmp_path, f"{out}.json", cfg)])
    return rc, str(tmp_path / out / "model.ckpt")


@pytest.mark.parametrize("curve, configured", [
    (None, "256"),
    ({"kind": "square", "n_bd": 16}, "16"),
    ({"kind": "petal", "n_bd": 36}, "36"),
])
def test_boundary_train_refuses_dataset_of_another_grid(tmp_path, capsys, curve, configured):
    rc, _ = _train_boundary(tmp_path, _boundary_data(tmp_path), curve, out="run")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'n_bd': 32" in err
    assert f"'n_bd': {configured}" in err
    assert not (tmp_path / "run").exists()


def _eval_serves(tmp_path, ckpt):
    cfg = {"version": 1, "command": "eval", "seed": 0, "out": str(tmp_path / "eval"),
           "checkpoint": ckpt, "suite": {"kappas": [0.05], "eval_n": 4}}
    return cli.main(["eval", "--config", _write(tmp_path, "e.json", cfg)]) == 0


def _petal_backend_serves(tmp_path, ckpt):
    section = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1], domain={
        "kind": "petal", "base": 0.6, "amp": 0.25, "lobes": 6, "spacing": 0.2, "margin": 0.2})
    section["boundary_checkpoint"] = ckpt
    return cli._build_backend(section, "heat").domain.quad.n == 32


# the command that serves a boundary model trained on each curve kind
_CURVE_CONSUMERS = {"square": _eval_serves, "petal": _petal_backend_serves}


def test_one_boundary_dataset_trains_a_served_model_on_every_curve(tmp_path):
    """Boundary traces read only the parameter nodes, which every curve shares
    at one n_bd: one dataset of 32 nodes trains a model on each curve kind that
    train admits, each checkpoint records its own curve's grid, and a command
    serves it: eval on the unit square, the learned backend beside a petal
    source checkpoint on the petal.  A kind with no consumer has no entry in
    _CURVE_CONSUMERS and fails here."""
    from evokernel import nn
    data = _boundary_data(tmp_path)
    for kind in cli._CURVE.kinds:
        curve = {"kind": kind, "n_bd": 32}
        rc, ckpt = _train_boundary(tmp_path, data, curve, out=kind)
        assert rc == 0
        assert nn.load_checkpoint(ckpt)[1]["grid"] == _grid_record(curve)
        assert _CURVE_CONSUMERS[kind](tmp_path, ckpt)


@pytest.mark.parametrize("kind", list(cli._CURVE.kinds))
@pytest.mark.parametrize("n_bd", [7, 8, 9, 10, 12])
def test_each_curve_rule_admits_the_n_bd_its_grid_takes(kind, n_bd):
    """The n_bd rule of each admitted curve admits exactly the node counts that
    sample_quadrature can place on that curve, so a config the rule passes
    never fails in the geometry, and none that the geometry serves is refused."""
    try:
        grid = cli._build_curve_grid({"kind": kind, "n_bd": n_bd})
    except ValueError:
        grid = None
    assert cli._CURVE.kinds[kind]["n_bd"].ok(n_bd) == (grid is not None)
    assert grid is None or grid.n == n_bd


@pytest.mark.parametrize("n_bd", [8, 9, 30])
def test_boundary_datagen_takes_n_bd_that_the_square_refuses(tmp_path, n_bd):
    """A boundary dataset is built on a grid that takes every n_bd >= 8, so
    dataset.n_bd need not split over the square's four edges."""
    from evokernel import datagen
    cfg = {"version": 1, "command": "datagen", "seed": 0, "out": str(tmp_path / "data"),
           "dataset": {"kind": "boundary", "kappas": [0.05, 0.1], "n_g": 2, "n_bd": n_bd}}
    assert cli.main(["datagen", "--config", _write(tmp_path, "d.json", cfg)]) == 0
    ds = datagen.load_dataset(str(tmp_path / "data" / "dataset.bin"))
    assert ds.g.shape == (4, n_bd) and ds.provenance["n_bd"] == n_bd


@pytest.mark.parametrize("curve, sha256", [
    ({"kind": "square", "n_bd": 32},
     "d654411da8156c61904af34c31d2a2de42da742c565449ce072595abe38268ad"),
    ({"kind": "square", "n_bd": 256},
     "a95c45ac1801b62264cadc2888ee94746bcf987b2c8ae238982757b8ee57ce84"),
    ({"kind": "petal", "n_bd": 64},
     "823bc2b6f7b655bb2956bcfa427aedf0d51a7e5aa23f7a670af3c81c11888982"),
])
def test_grid_sha256_keeps_the_checkpoints_older_code_wrote(curve, sha256):
    """Grid records hold the sha256 of the node arrays: these values, written
    by earlier versions, must keep matching, so the nodes must not move a bit."""
    assert cli._grid_sha256(cli._build_curve_grid(curve)) == sha256


@pytest.mark.parametrize("cmd, geometry", [
    (cmd, geometry) for cmd in ("datagen", "train", "evolve", "uq")
    for geometry in ({"spacing": 5.0}, {"spacing": 0.2, "margin": 2.0})])
def test_petal_points_with_no_interior_point_are_a_config_error(tmp_path, capsys, cmd,
                                                                geometry):
    """A petal lattice that the margin leaves empty exits 2 and writes nothing:
    in datagen's off-lattice keys, in train's points section and in a source
    checkpoint's domain record, which evolve and uq read."""
    from evokernel import nn
    if cmd == "datagen":
        cfg = {"dataset": {"kind": "source-offlattice", "kappas": [0.05], "per_kappa": 2,
                           **geometry}}
    elif cmd == "train":
        cfg = {"model": {"kind": "source"}, "data": {"path": _tiny_source_dataset(tmp_path)},
               "points": {"kind": "petal", **geometry}}
    else:
        section = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1], domain=_PETAL_RECORD)
        model, meta = nn.load_checkpoint(section["source_checkpoint"])
        meta["domain"].update(geometry)
        nn.save_checkpoint(model, section["source_checkpoint"], meta)
        cfg = ({"problem": {"equation": "heat", "tau": 0.14, "n_steps": 1}, "backend": section}
               if cmd == "evolve" else {"backend": section, "uq": _UQ})
    cfg = {"version": 1, "command": cmd, "seed": 0, "out": str(tmp_path / "run"), **cfg}
    rc = cli.main([cmd, "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "no interior points" in err
    assert f"'spacing': {geometry['spacing']}" in err
    assert not (tmp_path / "run").exists()


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, dirs, files in os.walk(root) for name in dirs + files)


def test_a_refused_run_removes_every_directory_it_made(tmp_path, capsys):
    """A train run refused after its output directory was made removes the
    directories that --out added, parents included, and only those."""
    cfg = {"version": 1, "command": "train", "seed": 0, "model": {"kind": "source"},
           "data": {"path": _tiny_source_dataset(tmp_path)},
           "points": {"kind": "petal", "spacing": 5.0}}
    config = _write(tmp_path, "c.json", cfg)
    (tmp_path / "deep").mkdir()
    before = _tree(tmp_path)
    out = tmp_path / "deep" / "a" / "b" / "c"
    assert cli.main(["train", "--config", config, "--out", str(out)]) == 2
    assert "no interior points" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_are_a_config_error(tmp_path, capsys, monkeypatch, threads):
    """--threads below 1 exits 2 naming the flag and its value, before any
    thread variable is set or any directory is made."""
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "3")
    cfg = {"version": 1, "command": "uq", "seed": 0, "out": str(tmp_path / "run"),
           "backend": _CLASSICAL, "uq": {"samples": 2, "tau": 0.1, "n_steps": 1}}
    rc = cli.main(["uq", "--config", _write(tmp_path, "c.json", cfg),
                   "--threads", str(threads)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"--threads={threads}" in err
    assert all(os.environ[var] == "3" for var in cli._THREAD_VARS)
    assert not (tmp_path / "run").exists()


def test_source_train_refuses_records_of_neither_layout(tmp_path, capsys):
    cfg = _source_train_config(tmp_path, {"epochs": 1})
    cfg["points"]["n"] = 11                 # the records hold 9 x 9 values
    rc = cli.main(["train", "--config", _write(tmp_path, "t.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "81 values" in err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_coupled_pipeline_takes_coupled_from_the_data(tmp_path):
    """Coupled datagen, then training and a learned Strang run with no
    coupled key: the datasets' widths and the checkpoints carry it."""
    grid = {"kind": "square", "n_bd": 32}
    configs = [
        ("datagen", "bdata", {"dataset": {"kind": "boundary", "kappas": [0.005, 0.01],
                                          "n_g": 4, "n_bd": 32, "coupled": True}}),
        ("datagen", "sdata", {"dataset": {"kind": "source", "kappas": [0.005, 0.01],
                                          "per_kappa": 4, "n": 9, "coupled": True}}),
        ("train", "bmodel", {"model": {"kind": "boundary", "internal": 8}, "curve": grid,
                             "data": {"path": str(tmp_path / "bdata" / "dataset.bin")},
                             "train": {"epochs": 2, "batch_size": 4}}),
        ("train", "smodel", {"model": {"kind": "source", "hidden_k": [4], "hidden_g": [4]},
                             "points": {"n": 9},
                             "data": {"path": str(tmp_path / "sdata" / "dataset.bin")},
                             "train": {"epochs": 2, "batch_size": 4}}),
        ("evolve", "run", {"problem": {"equation": "schrodinger", "splitting": "strang",
                                       "tau": 0.01, "n_steps": 2},
                           "backend": {"kind": "nekm",
                                       "boundary_checkpoint": str(tmp_path / "bmodel"
                                                                  / "model.ckpt"),
                                       "source_checkpoint": str(tmp_path / "smodel"
                                                                / "model.ckpt")}}),
    ]
    for cmd, out, cfg in configs:
        cfg = {"version": 1, "command": cmd, "seed": 0, "out": str(tmp_path / out), **cfg}
        assert cli.main([cmd, "--config", _write(tmp_path, f"{out}.json", cfg)]) == 0
    with open(tmp_path / "run" / "error_trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(np.isfinite(float(v)) for row in rows for v in row.values())


def _tiny_source_dataset(tmp_path):
    from evokernel import datagen
    path = str(tmp_path / "d.bin")
    datagen.save_dataset(datagen.build_source_dataset([0.05, 0.08], 6, 9, seed=1), path)
    return path


def _source_train_config(tmp_path, train):
    return {"version": 1, "command": "train", "seed": 2, "out": str(tmp_path / "run"),
            "model": {"kind": "source", "hidden_k": [4], "hidden_g": [6]},
            "data": {"path": _tiny_source_dataset(tmp_path)},
            "points": {"kind": "square", "n": 9}, "train": train}


@pytest.mark.parametrize("train, message", [
    ({"epochs": 0}, "epochs"),
    ({"epochs": 3, "log_every": 0}, "log_every"),
    ({"epochs": 3, "lr_decay": -0.5}, "lr_decay"),
    ({"epochs": 3, "lr_decay": 2.0}, "lr_decay"),
    ({"epochs": 2.5}, "epochs"),
    ({"epochs": 3, "batch_size": 2.5}, "batch_size"),
    ({"epochs": True}, "epochs"),
    ({"epochs": 3, "lr": True}, "lr"),
    ({"epochs": 3, "lr_decay": True}, "lr_decay"),
])
def test_train_rejects_invalid_train_settings(tmp_path, capsys, train, message):
    cfg = _source_train_config(tmp_path, train)
    rc = cli.main(["train", "--config", _write(tmp_path, "t.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_train_records_training_error_per_kappa(tmp_path):
    """summary.json and the checkpoint carry the relative L2 training error per
    kappa, and computing it leaves the trained weights as the API gives them."""
    from evokernel import datagen, training
    from evokernel.geometry import square_lattice
    from evokernel.nn import checkpoint_bytes, load_checkpoint
    cfg = _source_train_config(tmp_path, {"epochs": 20, "batch_size": 4, "log_every": 5})
    assert cli.main(["train", "--config", _write(tmp_path, "t.json", cfg)]) == 0
    run = tmp_path / "run"
    summary = json.loads((run / "summary.json").read_text())
    model, meta = load_checkpoint(str(run / "model.ckpt"))
    assert meta["train_error"] == summary["train_error"]
    assert meta["domain"] == {"kind": "square", "n": 9}
    assert summary["train_error"]["metric"] == "rel_l2"
    ds = datagen.load_dataset(cfg["data"]["path"])
    expected = [training.error_metrics(model.predict(k, ds.f[ds.kappa_index == i]),
                                       ds.u[ds.kappa_index == i])["rel_l2"]
                for i, k in enumerate(ds.kappas)]
    assert summary["train_error"]["per_kappa"] == expected
    assert all(0.0 < e < np.inf for e in expected)
    tcfg = training.TrainConfig(epochs=20, batch_size=4, log_every=5, seed=2,
                                hidden_k=(4,), hidden_g=(6,))
    api_model, _ = training.train_source_model(tcfg, ds, square_lattice(9).points)
    assert checkpoint_bytes(api_model) == checkpoint_bytes(model)


@pytest.mark.parametrize("kind, cases", [
    ("scalar-boundary", ["kappa=0.05", "kappa=0.067"]),
    ("system-boundary", ["lam=0.05:u1", "lam=0.05:u2", "lam=0.067:u1", "lam=0.067:u2"]),
    ("scalar-source", ["kappa=0.05", "kappa=0.067"]),
    ("system-source", ["lam=0.05:u1", "lam=0.05:u2", "lam=0.067:u1", "lam=0.067:u2"]),
])
def test_eval_every_suite_kind(tmp_path, kind, cases):
    from evokernel import nn
    from evokernel.geometry import square_lattice
    rng = np.random.default_rng(0)
    coupled = kind.startswith("system")
    if kind.endswith("boundary"):
        model = nn.BoundaryModel.build(32, rng, internal=8, coupled=coupled)
        suite, meta = {"eval_n": 8}, {"grid": _grid_record({"kind": "square", "n_bd": 32})}
    else:
        model = nn.SourceModel.build(square_lattice(9).points, [8], [8], rng,
                                     coupled=coupled)
        suite, meta = {}, None
    nn.save_checkpoint(model, str(tmp_path / "m.ckpt"), meta)
    out = tmp_path / "eval"
    cfg = {"version": 1, "command": "eval", "seed": 0, "out": str(out),
           "checkpoint": str(tmp_path / "m.ckpt"),
           "suite": {"kappas": [0.05, 0.067], **suite}}
    assert cli.main(["eval", "--config", _write(tmp_path, "e.json", cfg)]) == 0
    rows = (out / "errors.csv").read_text().strip().splitlines()
    assert rows[0] == "case,abs_l2,abs_linf,rel_l2,rel_linf"
    assert [r.split(",")[0] for r in rows[1:]] == cases
    values = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
    assert np.all(np.isfinite(values)) and np.all(values > 0)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == kind
    assert [r["case"] for r in summary["rows"]] == cases


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("key, value", [("eval_n", 8), ("eval_lo", 0.1), ("eval_hi", 0.9)])
def test_eval_refuses_boundary_suite_keys_on_a_source_checkpoint(tmp_path, capsys, coupled,
                                                                 key, value):
    from evokernel import nn
    from evokernel.geometry import square_lattice
    model = nn.SourceModel.build(square_lattice(9).points, [8], [8], np.random.default_rng(0),
                                 coupled=coupled)
    nn.save_checkpoint(model, str(tmp_path / "m.ckpt"))
    cfg = {"version": 1, "command": "eval", "seed": 0, "out": str(tmp_path / "eval"),
           "checkpoint": str(tmp_path / "m.ckpt"), "suite": {"kappas": [0.05], key: value}}
    rc = cli.main(["eval", "--config", _write(tmp_path, "e.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err and "source checkpoint" in err
    assert not (tmp_path / "eval").exists()


# grid records that older versions wrote on curves that no command serves:
# their checkpoints are refused by the curve rules of the record
_OLD_GRID_RECORDS = [
    ({"curve": {"kind": "disk", "n_bd": 32},
      "sha256": "7d0446d27da027b2b067637694205c59dcc645a268fcf900f9a66855ce27250a"},
     ("'disk' in 'the boundary checkpoint's grid.curve.kind'",)),
    ({"curve": {"kind": "square", "side": 2, "n_bd": 32},
      "sha256": "39e589d5c4babc1079937ba133f570a6d021a726628b0de6f681e5a9cd6a4b29"},
     ("['side']",)),
]


@pytest.mark.parametrize("grid, message", [
    *_OLD_GRID_RECORDS,
    ({"kind": "petal", "n_bd": 32}, ("'petal'", "unit square")),
    (None, ("record None", "unit square")),
])
def test_eval_refuses_a_boundary_checkpoint_of_another_grid(tmp_path, capsys, grid, message):
    """The boundary suites run on the unit square, with the n_bd of the
    checkpoint's grid record: a checkpoint trained on another curve, one that
    older versions wrote on a disk or on a square of side 2, or one that
    records no grid, is refused."""
    from evokernel import nn
    model = nn.BoundaryModel.build(32, np.random.default_rng(0), internal=8)
    if grid is not None and "sha256" not in grid:
        grid = _grid_record(grid)
    nn.save_checkpoint(model, str(tmp_path / "m.ckpt"), {"grid": grid} if grid else None)
    cfg = {"version": 1, "command": "eval", "seed": 0, "out": str(tmp_path / "eval"),
           "checkpoint": str(tmp_path / "m.ckpt"), "suite": {"kappas": [0.05], "eval_n": 4}}
    rc = cli.main(["eval", "--config", _write(tmp_path, "e.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and all(m in err for m in message)
    assert not (tmp_path / "eval").exists()


def test_evolve_classical_and_report(tmp_path):
    r1 = tmp_path / "run1"
    cfg = {"version": 1, "command": "evolve", "seed": 0, "out": str(r1),
           "problem": {"equation": "heat", "scheme": "be", "tau": 0.25,
                       "n_steps": 2},
           "backend": {"kind": "classical", "n": 21}}
    assert cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)]) == 0
    assert (r1 / "error_trace.csv").exists()
    assert (r1 / "final_field.svg").read_text().startswith("<svg")
    summary = json.loads((r1 / "summary.json").read_text())
    assert summary["final_rel_l2"] < 0.05

    rep = tmp_path / "report"
    cfg = {"version": 1, "command": "report", "out": str(rep),
           "runs": [str(r1)]}
    assert cli.main(["report", "--config", _write(tmp_path, "r.json", cfg)]) == 0
    rows = (rep / "index.csv").read_text().strip().splitlines()
    assert rows[0].startswith("run,command,experiment")
    assert "heat-be" in rows[1] and "pass" in rows[1]


@pytest.mark.parametrize("problem, experiment", [
    ({"equation": "heat", "tau": 0.25, "n_steps": 2}, "heat-be"),
    ({"equation": "schrodinger", "tau": 0.05, "n_steps": 2}, "schrodinger-strang"),
    ({"equation": "wave", "tau": 0.25, "n_steps": 2}, "wave-"),
])
def test_report_gates_runs_by_the_scheme_they_ran(tmp_path, problem, experiment):
    run = tmp_path / "run"
    cfg = {"version": 1, "command": "evolve", "seed": 0, "out": str(run),
           "problem": problem, "backend": {"kind": "classical", "n": 21}}
    assert cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)]) == 0
    assert json.loads((run / "summary.json").read_text())["experiment"] == experiment
    rep = tmp_path / "report"
    cfg = {"version": 1, "command": "report", "out": str(rep), "runs": [str(run)]}
    assert cli.main(["report", "--config", _write(tmp_path, "r.json", cfg)]) == 0
    with open(rep / "index.csv", newline="") as fh:
        _, row = csv.reader(fh)
    assert row[2] == experiment and row[6] in ("pass", "fail")


_GATE_TABLE = [
    ("heat-be", "final_rel_l2", 0.015),
    ("heat-cn", "final_rel_l2", 0.015),
    ("wave-", "final_rel_l2", 0.01),
    ("schrodinger-strang", "trajectory_rel_l2", 0.02),
    ("schrodinger-lie", "trajectory_rel_l2", 0.05),
    ("uq-heat-cn", "rel_l2_error", 0.01),
]


@pytest.mark.parametrize("experiment, key, value, status", [
    *[(exp, key, threshold * factor, status) for exp, key, threshold in _GATE_TABLE
      for factor, status in ((1 - 1e-9, "pass"), (1 + 1e-9, "fail"))],
    ("heat-cn", "final_rel_l2", None, "info"),
    ("scalar-source", "rel_l2", 0.0, "info"),
])
def test_report_gates(tmp_path, experiment, key, value, status):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps({"command": "evolve"}))
    (run / "summary.json").write_text(json.dumps({"experiment": experiment, key: value}))
    rep = tmp_path / "report"
    cfg = {"version": 1, "command": "report", "out": str(rep), "runs": [str(run)]}
    assert cli.main(["report", "--config", _write(tmp_path, "r.json", cfg)]) == 0
    with open(rep / "index.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert header == ["run", "command", "experiment", "gate", "value", "threshold",
                      "status"]
    assert row[:3] == [str(run), "evolve", experiment]
    assert row[6] == status
    if status == "info":
        assert row[3:6] == ["", "", ""]
    else:
        threshold = next(t for e, _, t in _GATE_TABLE if e == experiment)
        assert row[3:6] == [key, repr(value), repr(threshold)]


def test_report_empty_runs(tmp_path):
    rep = tmp_path / "rep"
    cfg = {"version": 1, "command": "report", "out": str(rep), "runs": []}
    assert cli.main(["report", "--config", _write(tmp_path, "r.json", cfg)]) == 0
    assert (rep / "index.csv").read_text().strip().splitlines()[0].startswith("run,")


def test_report_missing_manifest_errors(tmp_path):
    rep = tmp_path / "rep"
    cfg = {"version": 1, "command": "report", "out": str(rep),
           "runs": [str(tmp_path / "nonexistent")]}
    rc = cli.main(["report", "--config", _write(tmp_path, "r.json", cfg)])
    assert rc == 1


def test_removed_command_is_refused(tmp_path, capsys):
    cfg = {"version": 1, "command": "oracle", "out": str(tmp_path / "run")}
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--config", _write(tmp_path, "o.json", cfg)])
    assert exc.value.code == 2
    assert "invalid choice: 'oracle'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_determinism_rerun_identical(tmp_path):
    outs = []
    for run in ("a", "b"):
        d = tmp_path / run
        cfg = {"version": 1, "command": "datagen", "seed": 3, "out": str(d),
               "dataset": {"kind": "boundary", "kappas": [0.05], "n_g": 5, "n_bd": 16}}
        assert cli.main(["datagen", "--config",
                         _write(tmp_path, f"{run}.json", cfg)]) == 0
        outs.append((d / "dataset.bin").read_bytes())
    assert outs[0] == outs[1]


def test_seed_override_changes_artifacts(tmp_path):
    outs = []
    for run, seed in (("a", None), ("b", 99)):
        d = tmp_path / ("s" + run)
        cfg = {"version": 1, "command": "datagen", "seed": 3, "out": str(d),
               "dataset": {"kind": "boundary", "kappas": [0.05], "n_g": 5, "n_bd": 16}}
        argv = ["datagen", "--config", _write(tmp_path, f"s{run}.json", cfg)]
        if seed is not None:
            argv += ["--seed-override", str(seed)]
        assert cli.main(argv) == 0
        outs.append((d / "dataset.bin").read_bytes())
    assert outs[0] != outs[1]


def _grid_record(curve):
    """The boundary grid record that evokernel train writes for a curve section."""
    grid = cli._build_curve_grid(curve)
    nodes = b"".join(a.tobytes() for a in (grid.points, grid.normals, grid.speeds,
                                           grid.curvatures))
    return {"curve": curve, "sha256": hashlib.sha256(nodes).hexdigest()}


_PETAL_RECORD = {"kind": "petal", "base": 0.5, "amp": 0.15, "lobes": 4, "spacing": 0.1,
                 "margin": 0.1}


def _learned_section(tmp_path, bnd_kappas, src_kappas, points=None, coupled=False,
                     domain=None):
    """Backend config over tiny random checkpoints with the given kappa metadata.
    The source checkpoint records domain (default: the 9 x 9 square lattice)
    and samples points (default: that domain's); the boundary checkpoint
    records the grid of 32 nodes on domain's curve."""
    from evokernel import nn
    rng = np.random.default_rng(0)
    domain = domain or {"kind": "square", "n": 9}
    points = cli._domain(domain)[0].points if points is None else points
    curve = {k: v for k, v in domain.items() if k not in ("n", "spacing", "margin")}
    paths = {}
    for kind, model, meta in (
            ("boundary", nn.BoundaryModel.build(32, rng, internal=8, coupled=coupled),
             {"kappas": bnd_kappas, "grid": _grid_record({**curve, "n_bd": 32})}),
            ("source", nn.SourceModel.build(points, [8], [8], rng, coupled=coupled),
             {"kappas": src_kappas, "domain": domain})):
        paths[kind] = str(tmp_path / f"{kind}.ckpt")
        nn.save_checkpoint(model, paths[kind], {k: v for k, v in meta.items() if v is not None})
    return {"kind": "nekm", "boundary_checkpoint": paths["boundary"],
            "source_checkpoint": paths["source"]}


def _heat_config(tmp_path, backend, tau=0.14):
    return {"version": 1, "command": "evolve", "seed": 0, "out": str(tmp_path / "run"),
            "problem": {"equation": "heat", "scheme": "cn", "tau": tau, "n_steps": 1},
            "backend": backend}


def test_lam_range_defaults_to_checkpoint_kappa_overlap(tmp_path):
    section = _learned_section(tmp_path, [0.04, 0.07, 0.1], [0.05, 0.12])
    assert cli._build_backend(section, "heat").lam_range == (0.05, 0.1)


def test_lam_range_refused_without_checkpoint_kappas(tmp_path, capsys):
    for bnd_kappas, src_kappas in ((None, None), ([0.05, 0.1], None), (None, [0.05, 0.1])):
        cfg = _heat_config(tmp_path, _learned_section(tmp_path, bnd_kappas, src_kappas))
        rc = cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 2
        assert "record the kappas" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, key, tau", [("evolve", "problem.tau", 0.5),
                                           ("uq", "uq.tau", 0.5)])
def test_a_step_lam_outside_the_checkpoint_kappas_is_a_config_error(tmp_path, capsys, cmd,
                                                                     key, tau):
    """A learned run whose step lam (tau for heat BE, tau / 2 for CN) lies
    outside the checkpoints' kappas exits 2 naming the key that sets it."""
    section = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1])
    cfg = ({**_heat_config(tmp_path, section, tau), "command": "evolve"} if cmd == "evolve"
           else {"version": 1, "command": "uq", "seed": 0, "out": str(tmp_path / "run"),
                 "backend": section, "uq": {"samples": 2, "tau": tau, "n_steps": 1}})
    rc = cli.main([cmd, "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err and "lam=0.25" in err
    assert not (tmp_path / "run").exists()


def test_backend_refuses_source_checkpoint_of_another_lattice(tmp_path, capsys):
    """A source checkpoint whose sample points are not those of its domain
    record is refused."""
    from evokernel.geometry import square_lattice
    section = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1],
                               points=square_lattice(11).points)
    rc = cli.main(["evolve", "--config", _write(tmp_path, "c.json",
                                                _heat_config(tmp_path, section))])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "sample points" in err
    assert not (tmp_path / "run").exists()


def test_backend_refuses_source_checkpoint_with_no_domain_record(tmp_path, capsys):
    from evokernel import nn
    section = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1])
    model, meta = nn.load_checkpoint(section["source_checkpoint"])
    del meta["domain"]
    nn.save_checkpoint(model, section["source_checkpoint"], meta)
    rc = cli.main(["evolve", "--config", _write(tmp_path, "c.json",
                                                _heat_config(tmp_path, section))])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "domain record" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("grid, message", [
    *_OLD_GRID_RECORDS,
    ({"kind": "petal", "n_bd": 32}, ("'petal'", "source checkpoint's domain")),
    (None, ("record None", "source checkpoint's domain")),
])
def test_backend_refuses_boundary_checkpoint_of_another_grid(tmp_path, capsys, grid, message):
    """A boundary checkpoint drives only the grid it was trained on: one trained
    on the petal, one that older versions wrote on a disk or on a square of
    side 2, or one that records no grid, is refused beside a source checkpoint
    on the unit square."""
    from evokernel import nn
    section = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1])
    if grid is None or "sha256" in grid:
        model, meta = nn.load_checkpoint(section["boundary_checkpoint"])
        meta["grid"] = grid
        nn.save_checkpoint(model, section["boundary_checkpoint"],
                           {k: v for k, v in meta.items() if v is not None})
    else:
        rc, section["boundary_checkpoint"] = _train_boundary(tmp_path, _boundary_data(tmp_path),
                                                             grid)
        assert rc == 0
    rc = cli.main(["evolve", "--config", _write(tmp_path, "c.json",
                                                _heat_config(tmp_path, section))])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and all(m in err for m in message)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("grid, message", _OLD_GRID_RECORDS)
def test_uq_refuses_a_boundary_checkpoint_older_code_wrote_on_another_curve(
        tmp_path, capsys, grid, message):
    """uq reads the grid record as evolve does: a boundary checkpoint that older
    versions wrote on a disk or on a square of side 2 is a config error."""
    from evokernel import nn
    section = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1])
    model, meta = nn.load_checkpoint(section["boundary_checkpoint"])
    meta["grid"] = grid
    nn.save_checkpoint(model, section["boundary_checkpoint"], meta)
    cfg = {"version": 1, "command": "uq", "seed": 0, "out": str(tmp_path / "run"),
           "backend": section, "uq": _UQ}
    rc = cli.main(["uq", "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and all(m in err for m in message)
    assert not (tmp_path / "run").exists()


# each checkpoint record with the table it follows and the commands that read it
_RECORDS = {"domain": (cli._TABLES["train"]["points"], ("evolve", "uq")),
            "grid": (cli._GRID_RECORD, ("eval", "evolve", "uq"))}
_RECORD_LEAVES = [(cmd, name, path, picks, value)
                  for name, (table, cmds) in _RECORDS.items()
                  for path, picks in _table_leaves(table) for cmd in cmds
                  for value in ("x", True) if not (value == "x" and path[-1] == "sha256")]


@pytest.mark.parametrize("cmd, name, path, picks, value", _RECORD_LEAVES, ids=[
    f"{cmd}:{name}.{'.'.join(path)}[{','.join(kind for _, _, kind in picks)}]={value}"
    for cmd, name, path, picks, value in _RECORD_LEAVES])
def test_every_checkpoint_record_key_refuses_a_value_of_another_type(tmp_path, capsys, cmd,
                                                                     name, path, picks, value):
    """The grid and domain records that train writes follow the rules of the
    sections they come from: a string where the rule wants no string, or true
    where it wants no boolean, is a config error naming the record's key, and
    the run writes nothing."""
    from evokernel import nn
    kind = picks[0][2] if picks else "square"
    section = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1],
                               domain=_PETAL_RECORD if (name, kind) == ("domain", "petal")
                               else None)
    ckpt = section["boundary_checkpoint" if name == "grid" else "source_checkpoint"]
    model, meta = nn.load_checkpoint(ckpt)
    if name == "grid":
        meta["grid"] = _grid_record({"kind": kind, "n_bd": 32})
    cli._walk(meta[name], name, _RECORDS[name][0])     # the record as train writes it
    node = meta[name]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    nn.save_checkpoint(model, ckpt, meta)
    cfg = {"version": 1, "command": cmd, "seed": 0, "out": str(tmp_path / "run"), **{
        "eval": {"checkpoint": section["boundary_checkpoint"], "suite": {"kappas": [0.05]}},
        "evolve": {"problem": {"equation": "heat", "tau": 0.14, "n_steps": 1},
                   "backend": section},
        "uq": {"backend": section, "uq": {"samples": 2, "tau": 0.1, "n_steps": 1}}}[cmd]}
    rc = cli.main([cmd, "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"checkpoint's {name}.{'.'.join(path)}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("cmd, problem, coupled", [
    ("evolve", {"equation": "heat", "tau": 0.14, "n_steps": 1}, True),
    ("evolve", {"equation": "wave", "tau": 0.2, "n_steps": 2}, True),
    ("evolve", {"equation": "schrodinger", "tau": 0.01, "n_steps": 1}, False),
    ("uq", None, True),
])
def test_learned_backend_of_the_other_kind_is_refused(tmp_path, capsys, cmd, problem,
                                                      coupled):
    section = _learned_section(tmp_path, [0.005, 0.1], [0.005, 0.1], coupled=coupled)
    cfg = {"version": 1, "command": cmd, "seed": 0, "out": str(tmp_path / "run"),
           "backend": section,
           **({"problem": problem} if cmd == "evolve" else {"uq": {"samples": 2}})}
    rc = cli.main([cmd, "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    equation = problem["equation"] if problem else "heat"
    kind = "coupled" if coupled else "scalar"
    assert err.startswith("config error") and repr(equation) in err and kind in err
    assert not (tmp_path / "run" / "summary.json").exists()


def test_disjoint_checkpoint_kappas_rejected(tmp_path):
    section = _learned_section(tmp_path, [0.01, 0.02], [0.05, 0.1])
    with pytest.raises(cli.ValidationError, match="overlap"):
        cli._build_backend(section, "heat")


def test_validation_rejects_kappa_diff():
    cfg = {"version": 1, "command": "evolve", "seed": 0,
           "problem": {"equation": "heat", "tau": 0.1, "n_steps": 1, "kappa_diff": 2.0},
           "backend": {"kind": "classical"}}
    with pytest.raises(cli.ValidationError, match="kappa_diff"):
        cli.validate_config(cfg)


def test_petal_backend_serves_non_default_curve(tmp_path):
    from evokernel.geometry import make_curve, petal_lattice
    interior = petal_lattice(make_curve("petal", base=0.5, amp=0.15, lobes=4), 0.1)
    backend = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1], domain=_PETAL_RECORD)
    cfg = {"version": 1, "command": "evolve", "seed": 0, "out": str(tmp_path / "run"),
           "problem": {"equation": "heat", "scheme": "be", "tau": 0.07, "n_steps": 1},
           "backend": backend}
    assert cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)]) == 0
    assert np.array_equal(cli._build_backend(backend, "heat").domain.points,
                          interior.points)


def test_petal_source_training_records_its_domain(tmp_path):
    """evokernel train writes a petal source model's domain record, defaults
    filled in, and a learned run builds its points from that record."""
    from evokernel import nn
    kappas = [0.05, 0.1]
    for cmd, out, cfg in (
            ("datagen", "sdata", {"dataset": {"kind": "source-offlattice", "kappas": kappas,
                                              "per_kappa": 2, "spacing": 0.2, "n_bd": 16}}),
            ("train", "smodel", {"model": {"kind": "source", "hidden_k": [4], "hidden_g": [4]},
                                 "points": {"kind": "petal", "spacing": 0.2},
                                 "train": {"epochs": 1, "batch_size": 2},
                                 "data": {"path": str(tmp_path / "sdata" / "dataset.bin")}})):
        cfg = {"version": 1, "command": cmd, "seed": 0, "out": str(tmp_path / out), **cfg}
        assert cli.main([cmd, "--config", _write(tmp_path, f"{out}.json", cfg)]) == 0
    model, meta = nn.load_checkpoint(str(tmp_path / "smodel" / "model.ckpt"))
    record = {"kind": "petal", "base": 0.6, "amp": 0.25, "lobes": 6, "spacing": 0.2,
              "margin": 0.2}
    assert meta["domain"] == record
    backend = _learned_section(tmp_path, kappas, kappas, domain=record)
    backend["source_checkpoint"] = str(tmp_path / "smodel" / "model.ckpt")
    cfg = {"version": 1, "command": "evolve", "seed": 0, "out": str(tmp_path / "run"),
           "problem": {"equation": "heat", "scheme": "be", "tau": 0.07, "n_steps": 1},
           "backend": backend}
    assert cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)]) == 0
    with open(tmp_path / "run" / "final_field.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + len(model.points)


@pytest.mark.parametrize("dataset, points", [
    # 6 points each: the default petal and one of base 0.58
    ({"kind": "source-offlattice", "spacing": 0.2},
     {"kind": "petal", "base": 0.58, "spacing": 0.2}),
    # 25 points each: the 5 x 5 lattice and a petal
    ({"kind": "source", "n": 5}, {"kind": "petal", "spacing": 0.205, "margin": 0}),
    ({"kind": "source-offlattice", "spacing": 0.205, "margin": 0}, {"kind": "square", "n": 5}),
])
def test_source_train_refuses_a_dataset_of_other_points(tmp_path, capsys, dataset, points):
    """A source dataset records the point set its labels were computed on, in
    the shape of train's points section; train exits 2 and writes nothing when
    its points section names another set, even one of the same size."""
    from evokernel import datagen
    data = tmp_path / "data"
    cfg = {"version": 1, "command": "datagen", "seed": 0, "out": str(data),
           "dataset": {"kappas": [0.05], "per_kappa": 2, **dataset}}
    assert cli.main(["datagen", "--config", _write(tmp_path, "d.json", cfg)]) == 0
    if dataset["kind"] == "source-offlattice":
        _, record = cli._domain({"kind": "petal", **dataset})
        assert datagen.load_dataset(str(data / "dataset.bin")).provenance["domain"] == record
    cfg = {"version": 1, "command": "train", "seed": 0, "out": str(tmp_path / "run"),
           "model": {"kind": "source", "hidden_k": [4], "hidden_g": [4]}, "points": points,
           "data": {"path": str(data / "dataset.bin")}, "train": {"epochs": 1}}
    assert cli.main(["train", "--config", _write(tmp_path, "t.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "points" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("n_steps, rc", [(1, 0), (2, 2), (3, 2)])
def test_wave_beyond_its_first_step_is_refused_on_a_petal_backend(tmp_path, capsys, n_steps,
                                                                    rc):
    """The theta-scheme takes a 5-point Laplacian of its Taylor-started level,
    which only the square lattice has: a petal backend runs one wave step, and
    a longer run exits 2 before it writes anything."""
    backend = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1], domain=_PETAL_RECORD)
    cfg = {"version": 1, "command": "evolve", "seed": 0, "out": str(tmp_path / "run"),
           "problem": {"equation": "wave", "tau": 0.4, "n_steps": n_steps},
           "backend": backend}
    assert cli.main(["evolve", "--config", _write(tmp_path, "c.json", cfg)]) == rc
    if rc:
        err = capsys.readouterr().err
        assert "problem.n_steps" in err and "petal" in err
        assert not (tmp_path / "run").exists()


def test_uq_manifest_records_the_machine_and_peak_memory(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run = tmp_path / "run"
    cfg = {"version": 1, "command": "uq", "seed": 0, "out": str(run),
           "backend": _CLASSICAL, "uq": {"samples": 2, "tau": 0.1, "n_steps": 1}}
    assert cli.main(["uq", "--config", _write(tmp_path, "c.json", cfg)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert set(manifest) == {"command", "config_sha256", "seed", "version", "artifacts",
                             "nproc", "threads", "numpy", "scipy", "peak_rss_mb"}
    assert manifest["config_sha256"] == hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    assert manifest["nproc"] == len(os.sched_getaffinity(0))
    assert manifest["threads"] == {var: os.environ.get(var) for var in cli._THREAD_VARS}
    assert manifest["threads"]["OPENBLAS_NUM_THREADS"] == "2"
    assert manifest["threads"]["MKL_NUM_THREADS"] is None
    assert (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__)
    peak_now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 0 < manifest["peak_rss_mb"] <= peak_now


def test_uq_is_refused_on_a_petal_backend(tmp_path, capsys):
    """uq's probe interpolates the square lattice."""
    backend = _learned_section(tmp_path, [0.05, 0.1], [0.05, 0.1], domain=_PETAL_RECORD)
    cfg = {"version": 1, "command": "uq", "seed": 0, "out": str(tmp_path / "run"),
           "backend": backend, "uq": {"samples": 2, "tau": 0.1, "n_steps": 1}}
    rc = cli.main(["uq", "--config", _write(tmp_path, "c.json", cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "uq" in err and "petal" in err
    assert not (tmp_path / "run").exists()
