import inspect
import json
from operator import attrgetter
from types import SimpleNamespace

import numpy as np
import pytest

from shadowpse import baselines, cli
from shadowpse.data_model import write_csv, write_descriptor
from shadowpse.errors import ConfigError, EstimationError
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
    assert {"gamma_converged", "gamma_q_n"} <= set(doc["warnings"])
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
], ids=["include_interactions", "degree", "seed", "gamma_restarts"])
def test_config_value_of_the_wrong_type_is_a_config_error(command, doc, data_files,
                                                          tmp_path, capsys):
    data, desc = data_files
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    rc = cli.main([command, "--config", str(path), "--data", data, "--descriptor", desc,
                   "--big-n", "200", "--out", str(tmp_path / "out.json")])
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
    (["--level", "0.9"], "level", 0.9, "level"),
    (["--degree", "2"], "degree", 2, "sieve.degree"),
    (["--no-interactions"], "include_interactions", False, "sieve.include_interactions"),
    (["--mu-degree", "3"], "mu_degree", 3, "sieve.mu_degree"),
    (["--mu-interactions"], "mu_interactions", True, "sieve.mu_interactions"),
    (["--mi-m", "3"], "mi_m", 3, "m"),
    (["--gamma-max-iter", "300"], "gamma_max_iter", 300, "gamma_options.max_iter"),
    (["--gamma-grad-tol", "1e-7"], "gamma_grad_tol", 1e-7, "gamma_options.grad_tol"),
    (["--gamma-linear-cap", "8"], "gamma_linear_cap", 8.0, "gamma_options.linear_cap"),
    (["--gamma-restarts", "1"], "gamma_restarts", 1, "gamma_options.restarts"),
    (["--gamma-penalty", "0.5"], "gamma_penalty", 0.5, "gamma_options.penalty"),
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


def _leaf_errors(cls=EstimationError):
    for sub in cls.__subclasses__():
        yield from (_leaf_errors(sub) if sub.__subclasses__() else [sub])


SOLVER_ERRORS = {"AllZeroWeights", "UnsolvableSystem", "SingularProjection", "SingularSystem"}
# documented exit code and stderr prefix of each error class
EXPECTED_EXIT = {
    cls.__name__: (2, "configuration error") if cls is ConfigError
    else (4, "solver error") if cls.__name__ in SOLVER_ERRORS
    else (3, "data error")
    for cls in _leaf_errors()
}
EXPECTED_EXIT["LinAlgError"] = (4, "solver error")
RAISABLE = {cls.__name__: cls for cls in _leaf_errors()}
RAISABLE["LinAlgError"] = np.linalg.LinAlgError


def test_every_error_class_has_an_expected_exit():
    assert len(RAISABLE) == 16  # 15 EstimationError leaves plus LinAlgError
    assert SOLVER_ERRORS <= set(RAISABLE)


@pytest.mark.parametrize("name", sorted(RAISABLE))
def test_exit_code_for_each_error_class(name, monkeypatch, capsys):
    def failing(cfg):
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
