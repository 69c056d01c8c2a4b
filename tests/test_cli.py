import ast
import inspect
import json
import re
from dataclasses import replace
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from shadowpse import baselines, cli, data_model, simulation
from shadowpse.data_model import read_descriptor, write_csv, write_descriptor
from shadowpse.errors import ConfigError, EstimationError, NonFiniteInput, UnsolvableSystem
from shadowpse.gamma_solver import GammaOptions
from shadowpse.simulation import DgpConfig, generate

from support import seq


@pytest.fixture(scope="module")
def data_files(tmp_path_factory, obs600):
    d = tmp_path_factory.mktemp("cli_data")
    data, desc = d / "obs.csv", d / "obs.json"
    write_csv(obs600, str(data))
    write_descriptor(obs600, str(desc))
    return str(data), str(desc)


@pytest.fixture(scope="module")
def est_run(tmp_path_factory):
    full, obs = generate(DgpConfig(n=2000, seed=seq(39)))
    d = tmp_path_factory.mktemp("cli_est")
    data, desc = d / "d.csv", d / "d.json"
    write_csv(obs, str(data))
    write_descriptor(obs, str(desc))
    out = d / "est.json"
    rc = cli.main(["estimate", "--data", str(data), "--descriptor",
                   str(desc), "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        doc = json.load(fh)
    return doc, d


def test_validate_prints_report(data_files, capsys):
    data, desc = data_files
    assert cli.main(["validate", "--data", data, "--descriptor", desc]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "validate"
    report = doc["report"]
    assert sorted(report) == ["arm_complete_counts", "arm_counts", "flags",
                              "miss_frac", "n", "n_complete"]
    assert report["n"] == 600
    assert 0.0 < report["miss_frac"] < 1.0
    assert report["flags"] == []


def test_estimate_output_schema(est_run):
    doc, _ = est_run
    assert sorted(doc) == ["command", "estimands", "method", "profiles",
                           "validation", "warnings"]
    assert doc["method"] == "sri"
    assert sorted(doc["estimands"]) == ["nde", "nie_1", "nie_2", "te"]
    for rep in doc["estimands"].values():
        assert sorted(rep) == ["ci_hi", "ci_lo", "diagnostics", "level",
                               "n", "psi_hat", "se", "sigma2"]
        assert rep["ci_lo"] <= rep["psi_hat"] <= rep["ci_hi"]
        assert {"profile_a", "profile_b"} <= set(rep["diagnostics"])
    assert sorted(doc["profiles"]) == ["000", "001", "011", "111"]
    assert {"gamma_converged", "gamma_polish_steps", "gamma_q_n"} <= set(doc["warnings"])
    assert doc["validation"]["n"] == 2000


def test_estimate_point_in_expected_range(est_run):
    doc, _ = est_run
    assert abs(doc["estimands"]["te"]["psi_hat"] + 0.12245315220611937) <= 0.45


def test_estimate_writes_manifest(est_run):
    _, d = est_run
    with open(d / "run_manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "estimate"
    assert manifest["config"]["method"] == "sri"
    assert manifest["config"]["data"].endswith("d.csv")
    assert isinstance(manifest["version"], str)


def test_explicit_profile_pair(data_files, capsys):
    data, desc = data_files
    rc = cli.main(["estimate", "--data", data, "--descriptor", desc,
                   "--method", "cca", "--profile-a", "111",
                   "--profile-b", "000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["estimands"]) == ["psi_111_vs_000"]
    assert np.isfinite(doc["estimands"]["psi_111_vs_000"]["psi_hat"])


def test_estimand_subset(data_files, capsys):
    data, desc = data_files
    rc = cli.main(["estimate", "--data", data, "--descriptor", desc,
                   "--method", "cca", "--estimand", "nde",
                   "--estimand", "te"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc["estimands"]) == ["nde", "te"]


def test_profile_option_errors(data_files):
    data, desc = data_files
    base = ["estimate", "--data", data, "--descriptor", desc,
            "--method", "cca"]
    assert cli.main(base + ["--profile-a", "1x1", "--profile-b", "000"]) == 2
    assert cli.main(base + ["--profile-a", "11", "--profile-b", "00"]) == 2
    assert cli.main(base + ["--profile-a", "111"]) == 2
    assert cli.main(base + ["--estimand", "nie_3"]) == 2
    assert cli.main(base + ["--estimand", "foo"]) == 2


@pytest.mark.parametrize("profile", [[1, "x", 1], [1, 2, 1], [1, 0.5, 1], [1, True, 1]])
def test_config_profile_list_with_a_bad_entry_is_a_config_error(profile, data_files, tmp_path,
                                                                 capsys):
    data, desc = data_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile_a": profile, "profile_b": "000"}))
    rc = cli.main(["estimate", "--data", data, "--descriptor", desc, "--method", "cca",
                   "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: profile")
    cfg.write_text(json.dumps({"profile_a": [1, 1, 1], "profile_b": [0, 0, 0]}))
    assert cli.main(["estimate", "--data", data, "--descriptor", desc, "--method", "cca",
                     "--config", str(cfg)]) == 0
    assert list(json.loads(capsys.readouterr().out)["estimands"]) == ["psi_111_vs_000"]


@pytest.mark.parametrize("command", ["truth", "simulate"])
def test_alpha_outside_minus_one_to_one_writes_nothing(command, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main([command, "--big-n", "200", "--n", "200", "--reps", "1", "--method", "cca",
                   "--alpha", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: alpha")
    assert list(tmp_path.iterdir()) == []


def _strict_json(text: str):
    """text parsed as strict JSON: NaN and Infinity tokens are refused."""
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def test_single_replication_summary_is_strict_json(tmp_path, capsys):
    """se and mcse_bias need two replications: with one they are null."""
    rc = cli.main(["simulate", "--reps", "1", "--n", "200", "--methods", "cca", "--big-n", "200",
                   "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    doc = _strict_json((tmp_path / "mc_summary.json").read_text())
    for cell in doc["cells"]["cca"].values():
        assert cell["se"] is None and cell["mcse_bias"] is None
        assert isinstance(cell["bias"], float) and cell["reps_used"] == 1
    _strict_json((tmp_path / "run_manifest.json").read_text())


def test_non_finite_figure_is_never_written(data_files, tmp_path, monkeypatch, capsys):
    """A NaN that reaches a JSON writer is a typed error, and no file is
    written: all four writers go through one strict encoder."""
    data, desc = data_files
    real = cli.run_method

    def nan_profiles(*args, **kwargs):
        res = real(*args, **kwargs)
        res.profiles = {prof: float("nan") for prof in res.profiles}
        return res

    monkeypatch.setattr(cli, "run_method", nan_profiles)
    out = tmp_path / "est.json"
    rc = cli.main(["estimate", "--data", data, "--descriptor", desc, "--method", "cca",
                   "--out", str(out)])
    assert rc == NonFiniteInput.exit_code
    assert "NonFiniteInput" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(NonFiniteInput):
        data_model.json_text({"x": float("inf")})


def test_missing_required_options(data_files, tmp_path):
    data, desc = data_files
    assert cli.main(["validate", "--descriptor", desc]) == 2
    assert cli.main(["validate", "--data", data]) == 2
    assert cli.main(["validate", "--data", str(tmp_path / "nope.csv"),
                     "--descriptor", desc]) == 2
    assert cli.main(["simulate", "--n", "50", "--reps", "1"]) == 2


def test_unknown_config_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert cli.main(["truth", "--config", str(path)]) == 2
    path.write_text("not json")
    assert cli.main(["truth", "--config", str(path)]) == 2
    assert cli.main(["truth", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command, doc", [
    ("estimate", {"include_interactions": "false"}),
    ("estimate", {"degree": "abc"}),
    ("truth", {"seed": None}),
    ("estimate", {"gamma_restarts": 1.7}),
    ("estimate", {"out": 5}),
    ("simulate", {"out": 5}),
    ("estimate", {"estimands": 5}),
    ("estimate", {"estimands": [1, 2]}),
    ("simulate", {"methods": 5}),
], ids=["include_interactions", "degree", "seed", "gamma_restarts", "out-estimate",
        "out-simulate", "estimands", "estimand-numbers", "methods"])
def test_config_value_of_the_wrong_type_is_a_config_error(command, doc, data_files,
                                                          tmp_path, capsys):
    data, desc = data_files
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = [] if "out" in doc else ["--out", str(tmp_path / "out.json")]
    rc = cli.main([command, "--config", str(path), "--data", data, "--descriptor", desc,
                   "--big-n", "200"] + out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert repr(next(iter(doc))) in err
    assert not (tmp_path / "run_manifest.json").exists()


def test_config_int_is_read_as_float(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"gamma_penalty": 2}))
    assert cli.main(["truth", "--config", str(path), "--big-n", "200",
                     "--out", str(tmp_path / "t.json")]) == 0
    resolved = json.loads((tmp_path / "run_manifest.json").read_text())["config"]
    assert resolved["gamma_penalty"] == 2.0
    assert isinstance(resolved["gamma_penalty"], float)


def test_unparseable_cell_is_a_data_error(data_files, tmp_path, capsys):
    data, desc = data_files
    lines = open(data).read().strip().split("\n")
    fields = lines[-1].split(",")
    fields[-1] = "oops"
    lines[-1] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["validate", "--data", str(bad),
                     "--descriptor", desc]) == 3
    assert "NonFiniteInput" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text(lines[0] + "\n")
    assert cli.main(["validate", "--data", str(empty),
                     "--descriptor", desc]) == 3


def _truncated_descriptor(data: str, desc: str, tmp_path) -> tuple[str, str]:
    text = open(desc, encoding="utf-8").read()
    bad = tmp_path / "bad.json"
    bad.write_text(text[:len(text) // 2], encoding="utf-8")
    return data, str(bad)


def _non_utf8_cell(data: str, desc: str, tmp_path) -> tuple[str, str]:
    """The last record's first x_miss cell replaced by the byte 0xff."""
    lines = open(data, "rb").read().rstrip(b"\r\n").split(b"\r\n")
    col = lines[0].decode().split(",").index(read_descriptor(desc)[1]["x_miss"][0])
    cells = lines[-1].split(b",")
    cells[col] = b"\xff"
    lines[-1] = b",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\r\n".join(lines) + b"\r\n")
    return str(bad), desc


def _declared_column_twice(data: str, desc: str, tmp_path) -> tuple[str, str]:
    """A second y column, whose values the reader must not take."""
    lines = open(data, encoding="utf-8").read().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0] + ",y"] + [line + ",9.0" for line in lines[1:]]) + "\n",
                   encoding="utf-8")
    return str(bad), desc


def _role_retyped(key: str, value):
    """A corruption that sets the descriptor's role key, or k, to value."""
    def corrupt(data: str, desc: str, tmp_path) -> tuple[str, str]:
        doc = json.loads(open(desc, encoding="utf-8").read())
        (doc if key == "k" else doc["columns"])[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        return data, str(bad)
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_truncated_descriptor, r"descriptor \S+bad\.json: not valid JSON: "),
    (_non_utf8_cell, r"\S+bad\.csv: not UTF-8 text: "),
    (_declared_column_twice, r"column 'y' is repeated in \S+bad\.csv"),
    (_role_retyped("m", 5), r"descriptor \S+bad\.json: 'm' must be a list of lists "),
    (_role_retyped("y", ["y"]), r"descriptor \S+bad\.json: 'y' must be a column name"),
    (_role_retyped("z", "z"), r"descriptor \S+bad\.json: 'z' must be a list of column names"),
    (_role_retyped("x_obs", ["x2", "y"]),
     r"descriptor \S+bad\.json: column 'y' in both 'x_obs' and 'y'\n"),
    (_role_retyped("z", ["z", "z"]), r"descriptor \S+bad\.json: column 'z' twice in 'z'\n"),
    (_role_retyped("m", [["m1"], ["m1"]]),
     r"descriptor \S+bad\.json: column 'm1' twice in 'm'\n"),
    (_role_retyped("k", 2.5), r"descriptor \S+bad\.json: 'k' must be an integer, got 2\.5\n"),
    (_role_retyped("k", "2"), r"descriptor \S+bad\.json: 'k' must be an integer, got '2'\n"),
    (_role_retyped("k", True), r"descriptor \S+bad\.json: 'k' must be an integer, got True\n"),
], ids=["truncated descriptor", "non-UTF-8 cell", "declared column twice",
        "mediators a number", "outcome a list", "shadow a string", "column in two roles",
        "column twice in one role", "mediator in two groups", "k fractional", "k a string",
        "k a bool"])
def test_malformed_input_file_is_a_data_error(corrupt, message, data_files, tmp_path, capsys):
    """A data or descriptor file the reader cannot take as it stands ends
    in a DimensionMismatch naming the file or column, exit 3, with no
    traceback."""
    data, desc = corrupt(*data_files, tmp_path)
    assert cli.main(["validate", "--data", data, "--descriptor", desc]) == 3
    err = capsys.readouterr().err
    assert re.match("data error: DimensionMismatch: " + message, err)
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_oracle_runs_on_full_data(full2000, tmp_path, capsys):
    sub = full2000.subset(np.arange(full2000.n) < 400)
    data, desc = tmp_path / "full.csv", tmp_path / "full.json"
    write_csv(sub, str(data))
    write_descriptor(sub, str(desc))
    rc = cli.main(["estimate", "--data", str(data), "--descriptor",
                   str(desc), "--method", "oracle", "--estimand", "te"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "validation" not in doc
    assert np.isfinite(doc["estimands"]["te"]["psi_hat"])


def test_simulate_outputs_and_reproducibility(tmp_path, capsys):
    args = ["simulate", "--n", "250", "--reps", "2", "--methods", "cca",
            "--seed", "11", "--big-n", "20000"]
    d1, d2, d3 = (tmp_path / name for name in ("run1", "run2", "run3"))
    assert cli.main(args + ["--out", str(d1)]) == 0
    assert cli.main(args + ["--out", str(d2)]) == 0
    capsys.readouterr()
    for name in ("mc_table.csv", "mc_summary.json", "run_manifest.json"):
        assert (d1 / name).exists()
    for name in ("mc_table.csv", "mc_summary.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    m1 = json.loads((d1 / "run_manifest.json").read_text())
    m2 = json.loads((d2 / "run_manifest.json").read_text())
    m1["config"].pop("out"), m2["config"].pop("out")
    assert m1 == m2

    # a manifest doubles as a config file, reproducing the run bit for bit
    rc = cli.main(["simulate", "--config", str(d1 / "run_manifest.json"),
                   "--out", str(d3)])
    assert rc == 0
    capsys.readouterr()
    for name in ("mc_table.csv", "mc_summary.json"):
        assert (d1 / name).read_bytes() == (d3 / name).read_bytes()


def test_truth_subcommand(capsys):
    args = ["truth", "--big-n", "20000", "--seed", "7", "--n", "50"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["command"] == "truth"
    table = doc["table"]
    assert sorted(table) == ["big_n", "contrast_mcse", "contrasts", "psi",
                             "psi_mcse", "seed"]
    assert len(table["psi"]) == 8
    assert abs(table["contrasts"]["nie_1"] + 1.0) <= 1e-12
    assert table["big_n"] == 20000 and table["seed"] == 7
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree": 2, "n": 123}))
    out = tmp_path / "t.json"
    rc = cli.main(["truth", "--config", str(cfg), "--n", "77",
                   "--big-n", "300", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    resolved = manifest["config"]
    assert resolved["degree"] == 2       # config file beats the default
    assert resolved["n"] == 77           # explicit flag beats the config
    assert resolved["level"] == 0.95     # untouched default
    assert resolved["big_n"] == 300


def test_basis_flags_are_recorded(tmp_path):
    out = tmp_path / "t.json"
    rc = cli.main(["truth", "--big-n", "200", "--no-interactions",
                   "--mu-degree", "3", "--mu-interactions",
                   "--out", str(out)])
    assert rc == 0
    resolved = json.loads(
        (tmp_path / "run_manifest.json").read_text())["config"]
    assert resolved["include_interactions"] is False
    assert resolved["mu_degree"] == 3
    assert resolved["mu_interactions"] is True


# flag, its config key, a value other than the default, and where the
# estimator's bound arguments hold it
OPTION_FLAGS = [
    (["--level", "0.9"], "level", 0.9, "options.level"),
    (["--degree", "2"], "degree", 2, "options.sieve.degree"),
    (["--no-interactions"], "include_interactions", False, "options.sieve.include_interactions"),
    (["--mu-degree", "3"], "mu_degree", 3, "options.sieve.mu_degree"),
    (["--mu-interactions"], "mu_interactions", True, "options.sieve.mu_interactions"),
    (["--mi-m", "3"], "mi_m", 3, "options.mi_m"),
    (["--gamma-max-iter", "300"], "gamma_max_iter", 300, "options.gamma_options.max_iter"),
    (["--gamma-grad-tol", "1e-7"], "gamma_grad_tol", 1e-7, "options.gamma_options.grad_tol"),
    (["--gamma-linear-cap", "8"], "gamma_linear_cap", 8.0, "options.gamma_options.linear_cap"),
    (["--gamma-restarts", "1"], "gamma_restarts", 1, "options.gamma_options.restarts"),
    (["--gamma-penalty", "0.5"], "gamma_penalty", 0.5, "options.gamma_options.penalty"),
]


@pytest.mark.parametrize("flags, key, value, path", OPTION_FLAGS,
                         ids=[flags[0] for flags, *_ in OPTION_FLAGS])
def test_option_flag_reaches_the_estimator(flags, key, value, path, data_files,
                                           tmp_path, monkeypatch):
    assert value != cli._DEFAULTS[key]
    method = "mi" if key == "mi_m" else "sri"
    name = f"{method}_estimate"
    original = getattr(baselines, name)
    calls = []

    def capturing(*args, **kwargs):
        calls.append(inspect.signature(original).bind(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(baselines, name, capturing)
    data, desc = data_files
    rc = cli.main(["estimate", "--method", method, "--data", data, "--descriptor", desc,
                   "--estimand", "te", "--out", str(tmp_path / "est.json")] + flags)
    assert rc == 0
    resolved = json.loads((tmp_path / "run_manifest.json").read_text())["config"]
    assert resolved[key] == value and type(resolved[key]) is type(value)
    (bound,) = calls
    bound.apply_defaults()
    assert attrgetter(path)(SimpleNamespace(**bound.arguments)) == value


def test_overflowing_variance_is_a_data_error(tmp_path):
    """Scaled by 1e153, y gives finite estimates whose influence values'
    sum of squares overflows: the oracle raises NonFiniteInput where it
    returned se = inf, and the CLI exits 3."""
    full, _ = generate(DgpConfig(n=600, seed=seq(40)))
    big = replace(full, y=full.y * 1e153)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteInput):
        baselines.oracle_estimate(big)
    data, desc = tmp_path / "big.csv", tmp_path / "big.json"
    write_csv(big, str(data))
    write_descriptor(big, str(desc))
    with np.errstate(over="ignore"):
        rc = cli.main(["estimate", "--method", "oracle", "--data", str(data),
                       "--descriptor", str(desc)])
    assert rc == 3


def _leaf_errors(cls=EstimationError):
    for sub in cls.__subclasses__():
        yield from (_leaf_errors(sub) if sub.__subclasses__() else [sub])


SOLVER_ERRORS = {"UnsolvableSystem"}
# documented exit code and stderr prefix of each error class
EXPECTED_EXIT = {
    cls.__name__: (2, "configuration error") if cls is ConfigError
    else (4, "solver error") if cls.__name__ in SOLVER_ERRORS
    else (3, "data error")
    for cls in _leaf_errors()
}
RAISABLE = {cls.__name__: cls for cls in _leaf_errors()}


def test_every_error_class_has_an_expected_exit():
    assert len(RAISABLE) == 11  # the EstimationError leaves
    assert SOLVER_ERRORS <= set(RAISABLE)


@pytest.mark.parametrize("name", sorted(RAISABLE))
def test_exit_code_for_each_error_class(name, monkeypatch, capsys):
    def failing(cfg, options):
        raise RAISABLE[name]("forced")

    monkeypatch.setattr(cli, "cmd_validate", failing)
    code, prefix = EXPECTED_EXIT[name]
    assert cli.main(["validate"]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix + ":")
    assert "forced" in err


@pytest.mark.parametrize("flags", [["--methods", "sir"], ["--estimand", "nie_3"]])
def test_simulate_rejects_bad_inputs_with_exit_2(flags, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["simulate", "--n", "250", "--reps", "2", "--method", "cca",
                   "--big-n", "2000", "--out", str(out)] + flags)
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (out / "mc_table.csv").exists()


@pytest.mark.parametrize("command, out", [("truth", "missing/t.json"),
                                          ("simulate", "a_file")])
def test_unwritable_out_is_a_config_error(command, out, tmp_path, capsys):
    (tmp_path / "a_file").write_text("")
    rc = cli.main([command, "--n", "200", "--reps", "1", "--method", "cca", "--big-n", "200",
                   "--out", str(tmp_path / out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]


@pytest.mark.parametrize("command", ["validate", "estimate", "truth"])
@pytest.mark.parametrize("out", ["missing/out.json", "a_dir"])
def test_out_is_checked_before_any_work(command, out, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("read_csv", "true_effects", "run_method"):
        monkeypatch.setattr(cli, name, no_work)
    (tmp_path / "a_dir").mkdir()
    rc = cli.main([command, "--data", str(tmp_path / "d.csv"),
                   "--descriptor", str(tmp_path / "d.json"), "--big-n", "200",
                   "--out", str(tmp_path / out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: cannot write --out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir"]


@pytest.mark.parametrize("flag, value, key", [
    ("--level", "1.5", "level"), ("--level", "0", "level"), ("--level", "nan", "level"),
    ("--mi-m", "1", "mi_m"), ("--degree", "-1", "degree"), ("--mu-degree", "-1", "mu_degree"),
])
def test_bad_estimator_setting_is_rejected_before_any_data_is_read(flag, value, key, data_files,
                                                                   monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "read_csv", no_work)
    data, desc = data_files
    rc = cli.main(["estimate", "--data", data, "--descriptor", desc, flag, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {key} must be")


@pytest.mark.parametrize("name, value", [
    ("max_iter", 0), ("linear_cap", 0.0), ("linear_cap", float("nan")), ("linear_cap", -1.0),
    ("penalty", -1.0), ("penalty", float("inf")), ("restarts", -2), ("grad_tol", -1.0),
])
@pytest.mark.parametrize("command", ["estimate", "simulate", "truth", "validate"])
def test_odds_solver_option_out_of_range_is_a_config_error(command, name, value, data_files,
                                                           tmp_path, monkeypatch, capsys):
    """GammaOptions refuses a value out of range with ConfigError; through
    any subcommand, even one that fits no odds, that is exit 2 and one
    stderr line, before any data is read or any file or directory made,
    the manifest included."""
    with pytest.raises(ConfigError, match=f"gamma_{name} must be"):
        GammaOptions(**{name: value})

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "read_csv", no_work)
    data, desc = data_files
    out = tmp_path / "run"
    flag = "--gamma-" + name.replace("_", "-")
    rc = cli.main([command, "--data", data, "--descriptor", desc, "--big-n", "200",
                   "--out", str(out), flag, str(value)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"configuration error: gamma_{name} must be")
    assert len(err.splitlines()) == 1 and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags", [
    ("truth", ["--big-n", "0"]),
    ("simulate", ["--reps", "0"]),
    ("simulate", ["--n", "0"]),
    ("simulate", ["--n", "-5"]),
    ("truth", ["--big-n", "1"]),
])
def test_size_below_one_is_rejected_before_any_work(command, flags, tmp_path, monkeypatch,
                                                    capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "true_effects", no_work)
    monkeypatch.setattr(cli, "run_monte_carlo", no_work)
    out = tmp_path / "run"
    rc = cli.main([command, "--n", "200", "--reps", "2", "--method", "cca", "--big-n", "200",
                   "--out", str(out)] + flags)
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_lapack_failures_are_solver_errors(data_files, obs600, monkeypatch, capsys):
    """A LAPACK failure inside a solve, in an SVD or in the eigh of an
    orthonormal span's Gram matrix, surfaces as UnsolvableSystem from an
    estimator, as exit code 4 from the CLI and as a recorded solver
    error in a Monte Carlo replication."""
    data, desc = data_files
    for name in ("svd", "eigh"):
        message = f"{name} did not converge"

        def failing(*args, message=message, **kwargs):
            raise np.linalg.LinAlgError(message)

        monkeypatch.setattr(np.linalg, name, failing)
        with pytest.raises(UnsolvableSystem, match=message):
            baselines.cca_estimate(obs600)

        assert cli.main(["estimate", "--data", data, "--descriptor", desc]) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver error: UnsolvableSystem:") and message in err

        rep = simulation._one_rep((DgpConfig(n=400), ("cca",), ("te",),
                                   baselines.MethodOptions(), 5, 0))
        assert rep["cca"]["error"].startswith("UnsolvableSystem: ")
        monkeypatch.undo()


SRC = Path(__file__).resolve().parents[1] / "src" / "shadowpse"
LAPACK_PREFIXES = ("np.linalg.", "numpy.linalg.", "scipy.linalg.")


def _dotted(node):
    """"a.b.c" for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _guarded(ancestors):
    """Whether the innermost node lies in the body of a `with
    lapack_errors(...)` block."""
    return any(
        isinstance(node, ast.With) and child in node.body and any(
            isinstance(item.context_expr, ast.Call)
            and _dotted(item.context_expr.func) == "lapack_errors"
            for item in node.items)
        for node, child in zip(ancestors, ancestors[1:]))


def _lapack_calls(tree):
    """(dotted name, line, guarded) for every np.linalg / scipy.linalg call."""
    stack = [(tree, [tree])]
    while stack:
        node, ancestors = stack.pop()
        if isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            if name.startswith(LAPACK_PREFIXES):
                yield name, node.lineno, _guarded(ancestors)
        stack.extend((child, ancestors + [child]) for child in ast.iter_child_nodes(node))


def test_every_lapack_call_is_guarded():
    """Every np.linalg / scipy.linalg call in the package sits inside a
    `with lapack_errors(...)` block, so no raw LinAlgError reaches the
    CLI or the Monte Carlo harness."""
    calls, unguarded = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module not in ("numpy.linalg", "scipy.linalg"), path.name
                assert not (node.module in ("numpy", "scipy")
                            and any(a.name == "linalg" for a in node.names)), path.name
            if isinstance(node, ast.Import):
                assert all(a.asname is None for a in node.names
                           if a.name.endswith(".linalg")), path.name
        for name, line, guarded in _lapack_calls(tree):
            calls += 1
            if not guarded:
                unguarded.append(f"{path.name}:{line} {name}")
    assert calls >= 5
    assert unguarded == []


def _loops_over_records(tree):
    """Line of every for loop or comprehension over range(<expr>.n) or
    range(<start>, <expr>.n): one step per record. A loop with a step,
    such as write_csv's range(0, ds.n, _CHUNK_ROWS), is not one."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.comprehension)):
            continue
        call = node.iter
        if not (isinstance(call, ast.Call) and _dotted(call.func) == "range"
                and 1 <= len(call.args) <= 2):
            continue
        stop = call.args[-1]
        if isinstance(stop, ast.Attribute) and stop.attr == "n":
            yield getattr(node, "lineno", None) or call.lineno


def test_no_loop_steps_through_the_records():
    """No code in the package loops over the records one at a time, as
    `for i in range(ds.n)` does; per-record work is done by numpy over
    whole columns."""
    flagged = """
for i in range(ds.n): pass
for i in range(0, self.data.n): pass
cells = [f(i) for i in range(ds.n)]
for start in range(0, ds.n, 1000): pass
for j in range(ds.dims.x_miss): pass
"""
    assert list(_loops_over_records(ast.parse(flagged))) == [2, 3, 4]
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _loops_over_records(ast.parse(path.read_text()))]
    assert found == []


def _takes_ds_and_designs(tree):
    """(name, line) of every public function or method with both a ds
    and a designs parameter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if {"ds", "designs"} <= params:
                yield node.name, node.lineno


def test_no_function_takes_a_dataset_beside_its_designs():
    """A SampleDesigns carries its dataset, so no public function takes
    both: a stage reads designs.ds, and cannot be handed designs built
    for another dataset."""
    flagged = """
def f(ds, designs): pass
def _g(ds, designs): pass
class C:
    def h(self, *, ds, designs): pass
def k(ds, bundle): pass
"""
    assert list(_takes_ds_and_designs(ast.parse(flagged))) == [("f", 2), ("h", 5)]
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for name, line in _takes_ds_and_designs(ast.parse(path.read_text()))]
    assert found == []


def _odds_outside_the_run(tree):
    """(name, line) of every function or method outside class RunFits
    that takes an odds parameter (named odds or odds_*), or designs beside
    run."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and top.name == "RunFits":
            continue
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if ({"designs", "run"} <= params
                        or any(p == "odds" or p.startswith("odds_") for p in params)):
                    yield node.name, node.lineno


def test_the_odds_are_bound_once_per_run():
    """Only RunFits takes the odds values: every stage that reads them
    takes the run, and no stage takes the designs beside the run, so no
    stage can be handed odds or designs of another run."""
    flagged = """
def f(designs, odds, profile): pass
def _g(run, k, odds_cc=None): pass
def h(run, designs): pass
class C:
    def m(self, *, odds): pass
class RunFits:
    def __init__(self, designs, odds_cc): pass
def ok(run, profile, oddsratio): pass
def fine(designs, phi): pass
"""
    assert list(_odds_outside_the_run(ast.parse(flagged))) == [
        ("f", 2), ("_g", 3), ("h", 4), ("m", 6)]
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for name, line in _odds_outside_the_run(ast.parse(path.read_text()))]
    assert found == []


# Where complete_mask may be read: the dataset's module, the bases fitted
# on the complete cases, SampleDesigns and the imputer of mi.
COMPLETE_MASK_READERS = {"data_model.py": None, "sieve_basis.py": None,
                         "series_regression.py": {"SampleDesigns"},
                         "baselines.py": {"mi_estimate"}}


def _complete_mask_reads(tree, allowed):
    """(top-level definition, line) of every read of .complete_mask
    outside the top-level definitions named in allowed."""
    for top in tree.body:
        name = getattr(top, "name", None)
        if name not in allowed:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "complete_mask":
                    yield name, node.lineno


def test_only_the_designs_gather_the_complete_cases():
    """Every stage reaches the complete cases through SampleDesigns, as
    the leading block of its row order and the vectors it gathers once;
    no other code reads complete_mask."""
    flagged = """
def f(ds): return ds.complete_mask
class SampleDesigns:
    def g(self): return self.ds.complete_mask
n_cc = ds.complete_mask.sum()
"""
    assert list(_complete_mask_reads(ast.parse(flagged), {"SampleDesigns"})) == [
        ("f", 2), (None, 5)]
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             if COMPLETE_MASK_READERS.get(path.name, set()) is not None
             for name, line in _complete_mask_reads(
                 ast.parse(path.read_text()), COMPLETE_MASK_READERS.get(path.name, set()))]
    assert found == []


def _public_definitions(tree):
    """(name, line) of every public module-level function and class."""
    return [(node.name, node.lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(tree):
    """Every name a module reads: bare names, attributes, imported names,
    and string constants for lookups such as getattr(module, "name")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_is_reachable():
    """Every public module-level function and class of the package is read
    by another line of the package, by the acceptance suite or by the
    benchmark. The re-exports of __init__ do not count: a name only they
    reach serves no estimator, CLI path or acceptance criterion."""
    tree = ast.parse("def f(): pass\nclass C: g = f\ndef _h(): pass\nx = C\n")
    assert _public_definitions(tree) == [("f", 1), ("C", 2)]
    assert {"f", "C"} <= set(_referenced_names(tree))
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    readers = modules + [SRC.parents[1] / "tests" / "test_acceptance.py",
                         *sorted((SRC.parents[1] / "bench").glob("*.py"))]
    used = {name for path in readers for name in _referenced_names(ast.parse(path.read_text()))}
    unused = [f"{path.name}:{line} {name}" for path in modules
              for name, line in _public_definitions(ast.parse(path.read_text()))
              if name not in used]
    assert unused == []
