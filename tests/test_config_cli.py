"""Config parsing/validation, CLI subcommands, sweeps, CSV determinism."""

import csv
import dataclasses
import gc
import json
import math
import warnings
import weakref

import numpy as np
import pytest

from dcsgd import ConfigError, RunConfig, parse_config, serialize_config
from dcsgd import cli, config, costmodel, engine, topology
from dcsgd.cli import main, sweep
from dcsgd.config import config_from_dict, resolve_gamma, build_topology, build_problem, build_compressor
from dcsgd.compression import effective_alpha
from dcsgd.costmodel import cost_grid
from dcsgd.theory import constants, gamma_dcd, gamma_ecd

BASE = {
    "algorithm": "dpsgd",
    "topology": {"kind": "ring", "n": 8},
    "problem": {"kind": "quadratic", "dim": 6, "heterogeneity": 0.0, "noise": 0.0},
    "compressor": {"kind": "identity"},
    "gamma": 0.1,
    "T": 200,
    "seed": 0,
    "trace_every": 10,
}

# malformed problem-section values, each of which must give a ConfigError
BAD_PROBLEM_FIELDS = [
    ("dim", 2.5), ("dim", "8"), ("dim", True),
    ("samples_per_node", 2.5), ("samples_per_node", True),
    ("noise", "x"), ("reg", "x"), ("separation", "x"),
    ("noise", math.nan), ("reg", -1.0), ("heterogeneity", math.inf),
]


# malformed values elsewhere in the config: (name the message must carry,
# top-level keys merged into BASE)
BAD_RUN_FIELDS = [
    ("grad_threshold", {"grad_threshold": "x"}),
    ("z_norm_cap", {"z_norm_cap": 10**400}),
    ("z_norm_cap", {"z_norm_cap": 0}),
    ("topology n", {"topology": {"kind": "ring", "n": "8"}}),
    ("topology n", {"topology": {"kind": "complete", "n": 2.0}}),
    ("edge", {"topology": {"kind": "custom", "n": 4, "edges": [[0, 1], [1]]}}),
    ("edge", {"topology": {"kind": "custom", "n": 4, "edges": [[0, 1], [1, "2"]]}}),
    ("edges", {"topology": {"kind": "custom", "n": 4, "edges": 5}}),
    ("edges", {"topology": {"kind": "ring", "n": 5, "edges": [[0, 1]]}}),
    ("edges", {"topology": {"kind": "complete", "n": 4, "edges": [[0, 1], [1, 2]]}}),
    ("self_weights", {"topology": {"kind": "ring", "n": 4, "self_weights": [0.5] * 4}}),
    ("self_weights", {"topology": {"kind": "complete", "n": 3, "self_weights": [0.2]}}),
    ("levels", {"compressor": {"kind": "quantize", "levels": 2.5}}),
    ("keep_prob", {"compressor": {"kind": "sparsify", "keep_prob": "x"}}),
    ("noise_bound", {"compressor": {"kind": "synthetic", "noise_bound": "x"}}),
    ("bandwidths", {"network": {"bandwidths": 5}}),
    ("latencies", {"network": {"latencies": [1e-3, "x"]}}),
    ("bandwidths", {"network": {"bandwidths": [0]}}),
    ("latencies", {"network": {"latencies": [-1e-3]}}),
    ("levels", {"compressor": {"kind": "quantize", "levels": 10**400}}),
    ("gamma", {"gamma": math.inf}),
    ("gamma", {"gamma": math.nan}),
    ("gamma", {"gamma": True}),
]

# problem values whose constants leave the float range, found only when the
# problem is built: (names the message must carry, config merged into BASE)
BAD_PROBLEM_CONSTANTS = [
    (("L", "separation"), {"topology": {"kind": "ring", "n": 3}, "problem": {
        "kind": "logistic", "dim": 3, "samples_per_node": 2, "separation": 1e200}}),
    (("zeta2", "heterogeneity"), {"topology": {"kind": "ring", "n": 3}, "problem": {
        "kind": "quadratic", "dim": 3, "heterogeneity": 1e308}}),
    (("sigma2", "noise"), {"topology": {"kind": "ring", "n": 3}, "problem": {
        "kind": "quadratic", "dim": 3, "noise": 1e300}}),
]


# the custom graph of tools/trace_matrix.py
CUSTOM = {"kind": "custom", "n": 6,
          "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 3]]}


# a config with its own network section, for the cost command and cost axes
COST_DOC = {**BASE, "compressor": {"kind": "quantize", "levels": 127},
            "network": {"model_dim": 1000, "steps_per_epoch": 7, "compute_s": 0.01,
                        "degree": 3, "bandwidths": [3e8, 1e6], "latencies": [1e-4, 2e-3]}}


def cost_reference(bandwidths, latencies):
    """COST_DOC's grid from the cost model called directly: the 127-level
    quantizer sends 8 bits per entry plus one 32-bit scale."""
    return cost_grid(n=8, model_bits=32 * 1000, compression_ratio=(8 * 1000 + 32) / (32 * 1000),
                     steps_per_epoch=7, degree=3, compute_s=0.01,
                     bandwidths=bandwidths, latencies=latencies)


def _tuples(value):
    """Lists as tuples, at every depth, as a parsed config holds them."""
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def csv_rows(path):
    """The rows of a dcsgd CSV below its comment block, as the csv module reads them."""
    return list(csv.reader(l for l in path.read_text().splitlines() if not l.startswith("#")))


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseValidate:
    def test_roundtrip(self):
        cfg = config_from_dict(BASE)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert parse_config(serialize_config(again)) == again

    def test_missing_algorithm_named(self):
        doc = {k: v for k, v in BASE.items() if k != "algorithm"}
        with pytest.raises(ConfigError, match="algorithm"):
            config_from_dict(doc)
        with pytest.raises(ConfigError, match="algorithm"):
            config_from_dict({**BASE, "algorithm": ""})

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="iterations"):
            config_from_dict({**BASE, "iterations": 5})

    def test_unknown_section_key_named(self):
        with pytest.raises(ConfigError, match="nodes"):
            config_from_dict({**BASE, "topology": {"kind": "ring", "nodes": 8}})

    def test_bad_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            config_from_dict({**BASE, "gamma": "auto"})
        with pytest.raises(ConfigError, match="gamma"):
            config_from_dict({**BASE, "gamma": -0.5})

    def test_bad_integer_fields(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({**BASE, "seed": -1})
        for key in ("T", "seed", "trace_every"):
            for flag in (True, False):
                with pytest.raises(ConfigError, match=key):
                    config_from_dict({**BASE, key: flag})
        for key, value in BAD_PROBLEM_FIELDS:
            with pytest.raises(ConfigError, match=key):
                config_from_dict({**BASE, "problem": {**BASE["problem"], key: value}})
        for name, patch in BAD_RUN_FIELDS:
            with pytest.raises(ConfigError, match=name):
                config_from_dict({**BASE, **patch})

    def test_run_config_validates_itself(self):
        # built in code or derived with replace, a RunConfig raises the
        # ConfigError that parsing the same values raises
        base = config_from_dict(BASE)
        patches = [{"T": -5}, {"trace_every": 0}, {"gamma": "auto"}]
        patches += [{"problem": {**BASE["problem"], key: value}}
                    for key, value in BAD_PROBLEM_FIELDS]
        patches += [patch for _, patch in BAD_RUN_FIELDS]
        for patch in patches:
            with pytest.raises(ConfigError) as parsed:
                config_from_dict({**BASE, **patch})
            fields = {key: type(getattr(base, key))(**{k: _tuples(v) for k, v in value.items()})
                      if isinstance(value, dict) else value for key, value in patch.items()}
            kwargs = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
            with pytest.raises(ConfigError) as built:
                RunConfig(**{**kwargs, **fields})
            with pytest.raises(ConfigError) as replaced:
                dataclasses.replace(base, **fields)
            assert str(built.value) == str(replaced.value) == str(parsed.value)

    def test_defaults_applied(self):
        cfg = config_from_dict({"algorithm": "dpsgd"})
        assert cfg.topology.kind == "ring" and cfg.topology.n == 8
        assert cfg.gamma == "theory"
        assert cfg.trace_every == 10

    def test_dcd_with_synthetic_noise_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict({**BASE, "algorithm": "dcd",
                              "compressor": {"kind": "synthetic", "noise_bound": 1.0}})

    def test_dcd_with_sparsify_accepted(self):
        cfg = config_from_dict({**BASE, "algorithm": "dcd",
                                "compressor": {"kind": "sparsify", "keep_prob": 0.9}})
        c = build_compressor(cfg.compressor)
        assert c.alpha_bound(cfg.problem.dim) == 1.0

    def test_disconnected_custom_rejected_at_parse(self):
        with pytest.raises(ConfigError):
            config_from_dict({**BASE, "topology": {
                "kind": "custom", "n": 4, "edges": [[0, 1], [2, 3]]}})

    def test_custom_with_too_few_edges_for_its_nodes_is_a_config_error(self, tmp_path, capsys):
        doc = {"algorithm": "dpsgd",
               "topology": {"kind": "custom", "n": 10_000_000, "edges": [[0, 1]]}}
        with pytest.raises(ConfigError, match="at least 9999999 edges"):
            config_from_dict(doc)
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: topology: ") and err.count("\n") == 1

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        for text in [
            "{algorithm: dpsgd}",
            # nested past the decoder's recursion limit
            "[" * 200_000 + "]" * 200_000,
            # past Python's limit on the digits of an int
            '{"algorithm": "dpsgd", "T": 1' + "0" * 5000 + "}",
        ]:
            with pytest.raises(ConfigError, match="JSON"):
                parse_config(text)
            path.write_text(text)
            assert main(["run", "--config", str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("configuration error: config is not valid JSON")
            assert err.count("\n") == 1 and "Traceback" not in err


class TestGammaResolution:
    def make_objects(self, doc):
        cfg = config_from_dict(doc)
        W = build_topology(cfg.topology)
        problem = build_problem(cfg.problem, W.n, np.random.default_rng(0))
        c = build_compressor(cfg.compressor)
        return cfg, problem, W, c

    def test_explicit_gamma_passthrough(self):
        cfg, problem, W, c = self.make_objects(BASE)
        assert resolve_gamma(cfg, problem, W, c) == 0.1

    @staticmethod
    def gamma_by_branch(algorithm, problem, W, c, T):
        """The theory step size as four hand-written branches gave it."""
        args = (problem.L, math.sqrt(problem.sigma2), math.sqrt(problem.zeta2), W.n, T)
        if algorithm == "ecd":
            return gamma_ecd(*args, C1=1.0 / (1.0 - W.rho) ** 2)
        if algorithm == "dcd":
            consts = constants(W.rho, W.mu, effective_alpha(c, problem.dim), problem.L, gamma=0.0)
            return gamma_dcd(*args, D1=consts.D1, D2=consts.D2)
        if algorithm == "centralized":
            return gamma_dcd(*args, D1=1.0, D2=0.0)
        return gamma_dcd(*args, D1=1.0 / (1.0 - W.rho) ** 2, D2=0.0)

    @pytest.mark.parametrize("algorithm", engine.ALGORITHMS)
    @pytest.mark.parametrize("topo", [
        {"kind": "ring", "n": 8}, {"kind": "complete", "n": 5},
        {"kind": "ring", "n": 256},  # closed-form spectrum
    ], ids=["ring8", "complete5", "ring256"])
    @pytest.mark.parametrize("problem_doc", [
        {"kind": "quadratic", "dim": 6, "heterogeneity": 0.0, "noise": 0.0},
        {"kind": "logistic", "dim": 6, "samples_per_node": 8},
    ], ids=["quadratic", "logistic"])
    def test_theory_noiseless_values(self, algorithm, topo, problem_doc):
        # one difference-family rule at each algorithm's (rho, alpha) gives the
        # bits of the per-algorithm branches; levels 10^5 keep dcd inside
        # the budget on ring 256
        doc = {**BASE, "algorithm": algorithm, "gamma": "theory", "topology": topo,
               "problem": problem_doc, "compressor": {"kind": "quantize", "levels": 100_000}}
        cfg, problem, W, c = self.make_objects(doc)
        assert resolve_gamma(cfg, problem, W, c) == self.gamma_by_branch(
            algorithm, problem, W, c, cfg.T)

    def test_theory_echoed_in_metadata(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BASE, "gamma": "theory", "T": 20})
        out = tmp_path / "trace.csv"
        code = main(["run", "--config", path, "--out", str(out)])
        assert code == 0
        text = out.read_text()
        meta = json.loads(text.splitlines()[1].split("# config: ")[1])
        assert meta["gamma"] == "theory"
        assert isinstance(meta["resolved_gamma"], float)


class TestCliRun:
    def test_trace_csv_schema_and_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "trace.csv"
        code = main(["run", "--config", path, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["status"] == "completed"
        lines = out.read_text().splitlines()
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "t,loss,grad_norm2,consensus,q_norm2,g_norm2,bits"
        assert len(lines) > header_at + 1

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, {**BASE, "problem": {
            "kind": "quadratic", "dim": 6, "heterogeneity": 0.4, "noise": 0.2}})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", path, "--out", str(out1)]) == 0
        assert main(["run", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    BUDGET_WARNING = ("warning: difference compression budget violated: alpha = {} "
                      ">= (1-rho)/(2 mu) = 0.07322; proceeding to demonstrate divergence")

    def test_budget_warning_is_one_stderr_line(self, tmp_path, capsys):
        # dcd at levels 7 on ring 8 violates the budget; engine.run warns,
        # and the CLI prints the warning alone, not as a source excerpt
        doc = {**BASE, "algorithm": "dcd", "T": 20, "trace_every": 1,
               "compressor": {"kind": "quantize", "levels": 7}}
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 0
        assert capsys.readouterr().err.splitlines() == [self.BUDGET_WARNING.format(0.3499)]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--axis", "levels", "--values", "5,7",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            self.BUDGET_WARNING.format(a) for a in (0.4899, 0.3499)]

    def test_diverged_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BASE, "gamma": 5.0})
        assert main(["run", "--config", path]) == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BASE, "algorithm": "sgd"})
        assert main(["run", "--config", path]) == 1
        assert "configuration error" in capsys.readouterr().err
        for key, value in BAD_PROBLEM_FIELDS:
            path = write_config(tmp_path, {**BASE, "problem": {
                "kind": "logistic", "dim": 4, "samples_per_node": 8, key: value}})
            assert main(["run", "--config", path]) == 1
            err = capsys.readouterr().err
            assert "configuration error" in err and key in err
        for name, patch in BAD_RUN_FIELDS:
            path = write_config(tmp_path, {**BASE, **patch})
            assert main(["run", "--config", path]) == 1
            err = capsys.readouterr().err
            assert "configuration error" in err and name in err
            assert "Traceback" not in err and err.count("\n") == 1

    def test_nonfinite_problem_constants_exit_code(self, tmp_path, capsys):
        for names, patch in BAD_PROBLEM_CONSTANTS:
            path = write_config(tmp_path, {**BASE, "gamma": "theory", **patch})
            for command in ("run", "theory"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # a stray numpy warning fails the test
                    assert main([command, "--config", path]) == 1
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("configuration error: ")
                assert all(name in err for name in names)
                assert "Traceback" not in err and err.count("\n") == 1

    def test_theory_gamma_must_be_positive(self):
        # a problem built outside build_problem with an infinite sigma2
        # resolves the theory step size to 0.0
        cfg = config_from_dict({**BASE, "gamma": "theory"})
        W = build_topology(cfg.topology)
        problem = build_problem(cfg.problem, W.n, np.random.default_rng(0))
        c = build_compressor(cfg.compressor)
        assert resolve_gamma(cfg, problem, W, c) > 0.0
        with pytest.raises(ConfigError, match="gamma resolved to 0.0"):
            resolve_gamma(cfg, dataclasses.replace(problem, sigma2=math.inf), W, c)

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BASE, "T": 20})
        assert main(["run", "--config", path, "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err
        bad = write_config(tmp_path, {**BASE, "seed": -1}, name="bad.json")
        assert main(["run", "--config", bad]) == 1
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--axis", "seed",
                     "--values=-1,2", "--out", str(out)]) == 0
        rows = csv_rows(out)[1:]
        assert rows[0][:3] == ["seed", "-1", "-1"] and rows[0][3].startswith("config_error: seed")
        assert rows[1][3] == "completed"

    def test_argument_errors_exit_1_in_one_line(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        for argv in (["run"],
                     ["sweep", "--config", path, "--axis", "foo", "--values", "1"],
                     ["run", "--config", path, "--seed", "x"],
                     ["sweep", "--config", path, "--axis", "seed", "--values", "-1,2"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("configuration error: ")
            assert err.count("\n") == 1

    def test_custom_topology_built_once_per_command(self, tmp_path, monkeypatch, capsys):
        calls = []
        build = topology.build_custom
        monkeypatch.setattr(topology, "build_custom", lambda *a: calls.append(a) or build(*a))
        path = write_config(tmp_path, {**BASE, "T": 20, "topology": CUSTOM})
        seeds = ",".join(str(s) for s in range(12))
        for argv in (["run", "--config", path],
                     ["sweep", "--config", path, "--axis", "seed", "--values", seeds],
                     ["theory", "--config", path]):
            calls.clear()
            assert main(argv) == 0
            assert len(calls) == 1

    def test_missing_file_exit_code(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, {**BASE, "T": 20})
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(json.dumps({**BASE, "T": 20}).encode("utf-16"))
        for argv in (["run", "--config", str(tmp_path / "nope.json")],
                     ["run", "--config", str(tmp_path)],
                     ["run", "--config", str(utf16)]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("configuration error: ")
            assert err.count("\n") == 1 and "Traceback" not in err

        # an --out that cannot be written is reported before any round runs
        def no_run(config):
            raise AssertionError("engine.run called with an unwritable --out")

        monkeypatch.setattr(engine, "run", no_run)
        for out_path, reason in ((tmp_path, "Is a directory"),
                                 (tmp_path / "missing" / "out.csv", "No such file"),
                                 (tmp_path / "utf16.json" / "out.csv", "Not a directory")):
            for argv in (["run", "--config", path],
                         ["sweep", "--config", path, "--axis", "seed", "--values", "0,1"]):
                assert main(argv + ["--out", str(out_path)]) == 1
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("configuration error: ") and reason in err
                assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--axis", "seed", "--values", "0,1"], ["cost"]],
        ids=["run", "sweep", "cost"])
    def test_empty_out_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        # rejected before the first round, not taken as "no trace" (run),
        # found unwritable after every entry has run (sweep) or reported as
        # the OSError of opening '' (cost)
        def no_run(config):
            raise AssertionError("engine.run called with an empty --out")

        monkeypatch.setattr(engine, "run", no_run)
        path = write_config(tmp_path, {**BASE, "T": 20})
        assert main(command + ["--config", path, "--out", ""]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "configuration error: --out must be a file path or '-', got an empty string\n")

    @pytest.mark.parametrize("command", [
        ["run"], ["theory"], ["sweep", "--axis", "seed", "--values", "0,1"]],
        ids=["run", "theory", "sweep"])
    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 298. GiB for an array"),
         "Unable to allocate 298. GiB for an array"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                            command, exc, message):
        # a config too large to allocate ends in one line, not a traceback;
        # a sweep puts that line in the status of each entry that failed
        def no_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(config, "build_problem", no_memory)
        path = write_config(tmp_path, {**BASE, "T": 20})
        if command[0] == "sweep":
            out_path = tmp_path / "sweep.csv"
            assert main(command + ["--config", path, "--out", str(out_path)]) == 0
            assert capsys.readouterr() == ("", "")
            assert [row[3] for row in csv_rows(out_path)[1:]] == [f"config_error: {message}"] * 2
            return
        assert main(command + ["--config", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"configuration error: {message}\n"

    def test_out_checked_without_creating_or_truncating_it(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, {**BASE, "T": 20})
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_text("earlier results\n")

        def failing_run(config):
            raise ConfigError("stopped before the first round")

        monkeypatch.setattr(engine, "run", failing_run)
        for out_path in (kept, fresh):
            assert main(["run", "--config", path, "--out", str(out_path)]) == 1
        assert kept.read_text() == "earlier results\n" and not fresh.exists()

    def test_seed_override(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BASE, "problem": {
            "kind": "quadratic", "dim": 6, "noise": 0.3}})
        main(["run", "--config", path, "--seed", "5"])
        s5 = json.loads(capsys.readouterr().out)
        main(["run", "--config", path, "--seed", "6"])
        s6 = json.loads(capsys.readouterr().out)
        assert s5["seed"] == 5 and s6["seed"] == 6
        assert s5["final_grad_norm2"] != s6["final_grad_norm2"]

    def test_successive_calls_share_no_argument_state(self, tmp_path, capsys):
        # the parser is built once per process; what one call parsed must
        # not reach the next
        assert cli.build_parser() is cli.build_parser()
        path = write_config(tmp_path, {**BASE, "seed": 3, "T": 20})
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", path, "--seed", "5", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
        written = out.read_bytes()
        assert main(["run", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3
        assert out.read_bytes() == written
        swept = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--axis", "gamma", "--values", "0.1,0.2",
                     "--out", str(swept)]) == 0
        rows = [l for l in swept.read_text().splitlines() if not l.startswith("#")]
        assert rows[0].split(",")[:3] == ["axis", "value", "seed"]
        assert [row.split(",")[2] for row in rows[1:]] == ["3", "3"]


class TestCliTheory:
    def test_prints_constants_and_verdict(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            **BASE, "algorithm": "dcd",
            "topology": {"kind": "ring", "n": 16},
            "problem": {"kind": "quadratic", "dim": 4},
            "compressor": {"kind": "quantize", "levels": 127},
        })
        assert main(["theory", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dcd_feasible"] is True
        assert doc["alpha"] == pytest.approx(math.sqrt(4) / 127)
        assert doc["rho"] == pytest.approx(0.94925, abs=1e-4)
        assert doc["D1"] >= doc["C1"] > 1.0
        assert isinstance(doc["gamma"], float)

    def test_infeasible_verdict(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            **BASE, "algorithm": "dcd",
            "topology": {"kind": "ring", "n": 16},
            "compressor": {"kind": "quantize", "levels": 7},
        })
        assert main(["theory", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dcd_feasible"] is False

    def test_large_ring_uses_the_closed_form_spectrum(self, tmp_path, capsys):
        # a dense 4096 x 4096 W would be 128 MB
        path = write_config(tmp_path, {
            **BASE, "topology": {"kind": "ring", "n": 4096},
            "problem": {"kind": "quadratic", "dim": 4}, "gamma": "theory", "T": 3,
        })
        assert main(["theory", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = 1.0 / 3.0 + 2.0 / 3.0 * math.cos(2.0 * math.pi / 4096)
        assert doc["rho"] == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert isinstance(doc["gamma"], float)
        assert main(["run", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "completed"


class TestCliCost:
    def test_grid_csv(self, tmp_path):
        path = write_config(tmp_path, {**BASE, "compressor": {"kind": "quantize", "levels": 127}})
        out = tmp_path / "cost.csv"
        assert main(["cost", "--config", path, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "bandwidth,latency,allreduce_s,decen_full_s,decen_compressed_s"
        assert len(lines) == 1 + 25

    def test_rows_equal_the_cost_model(self, tmp_path):
        path = write_config(tmp_path, COST_DOC)
        out = tmp_path / "cost.csv"
        assert main(["cost", "--config", path, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[1:] == [",".join(repr(row[k]) for k in costmodel.GRID_FIELDS)
                             for row in cost_reference([3e8, 1e6], [1e-4, 2e-3])]

    def test_payload_beyond_the_float_range_is_a_config_error(self, tmp_path, capsys):
        # model_dim fits a float, but its 32 bits per entry do not
        path = write_config(tmp_path, {**BASE, "network": {"model_dim": 10**307}})
        assert main(["cost", "--config", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("configuration error: model_bits must be a finite")
        assert err.count("\n") == 1


class TestSweep:
    def test_seed_sweep_rows(self):
        cfg = config_from_dict({**BASE, "T": 50, "problem": {
            "kind": "quadratic", "dim": 4, "noise": 0.2}})
        rows = sweep(cfg, "seed", [0, 1, 2, 3, 4])
        assert len(rows) == 5
        assert [r["seed"] for r in rows] == [0, 1, 2, 3, 4]
        assert all(r["status"] == "completed" for r in rows)
        assert all(r["total_bits"] == rows[0]["total_bits"] for r in rows)
        finals = {r["final_grad_norm2"] for r in rows}
        assert len(finals) == 5  # seed-dependent column differs

    def test_gamma_sweep_status_column(self):
        cfg = config_from_dict({**BASE, "T": 300})
        rows = sweep(cfg, "gamma", [0.1, 5.0])
        assert rows[0]["status"] == "completed"
        assert rows[1]["status"] == "diverged"

    def test_levels_sweep(self):
        cfg = config_from_dict({
            **BASE, "algorithm": "dcd", "T": 150,
            "topology": {"kind": "ring", "n": 16},
            "problem": {"kind": "quadratic", "dim": 4},
            "compressor": {"kind": "quantize", "levels": 127},
            "gamma": 0.004,
        })
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = sweep(cfg, "levels", [7, 127])
        assert [r["value"] for r in rows] == [7, 127]
        assert rows[1]["status"] == "completed"
        assert all(r["status"] in ("completed", "diverged") for r in rows)

    def test_levels_sweep_needs_quantizer(self):
        cfg = config_from_dict({**BASE, "T": 10})
        rows = sweep(cfg, "levels", [7])
        assert rows[0]["status"].startswith("config_error")

    def test_per_entry_errors_do_not_abort(self):
        cfg = config_from_dict({**BASE, "T": 10})
        rows = sweep(cfg, "n", [4, 1, 8])
        assert rows[0]["status"] == "completed"
        assert rows[1]["status"].startswith("config_error")
        assert rows[2]["status"] == "completed"

    def test_multi_seed_value_grid_order(self):
        cfg = config_from_dict({**BASE, "T": 20})
        rows = sweep(cfg, "gamma", [0.05, 0.1], seeds=[0, 1, 2])
        assert [(r["value"], r["seed"]) for r in rows] == [
            (0.05, 0), (0.05, 1), (0.05, 2), (0.1, 0), (0.1, 1), (0.1, 2)]

    def test_n_sweep_speedup_trend(self):
        # noise-dominated runs: more nodes average more gradients, so the
        # median final gradient norm drops as n grows
        cfg = config_from_dict({
            **BASE, "algorithm": "dcd", "gamma": "theory", "T": 800,
            "topology": {"kind": "complete", "n": 4},
            "problem": {"kind": "quadratic", "dim": 64, "noise": 1.0},
            "compressor": {"kind": "quantize", "levels": 127},
        })
        rows = sweep(cfg, "n", [4, 8, 16], seeds=[0, 1, 2, 3, 4])
        medians = [
            np.median([r["final_grad_norm2"] for r in rows if r["value"] == n])
            for n in (4, 8, 16)
        ]
        assert medians[0] > medians[1] > medians[2]

    def test_n_sweep_holds_one_matrix_at_a_time(self, monkeypatch):
        # a derived config keeps its built matrix, so the sweep must drop
        # each one once its row is filled
        built, live = [], []
        ring, run = topology.build_ring, engine.run

        def build_ring(n):
            W = ring(n)
            built.append(weakref.ref(W))
            return W

        def counting_run(configs):
            gc.collect()
            live.append(sum(ref() is not None for ref in built))
            return run(configs)

        monkeypatch.setattr(topology, "build_ring", build_ring)
        monkeypatch.setattr(engine, "run", counting_run)
        rows = sweep(config_from_dict({**BASE, "T": 10}), "n", [4, 2, 8, 16])
        assert [r["status"] for r in rows] == [
            "completed", "config_error: topology: a ring needs n >= 3 nodes, got 2",
            "completed", "completed"]
        assert live == [0, 0, 0] and len(built) == 3

    def test_bandwidth_axis_cost_rows(self):
        cfg = config_from_dict({**BASE, "compressor": {"kind": "quantize", "levels": 127}})
        rows = sweep(cfg, "bandwidth", [1.4e9, 5e6])
        assert all(r["status"] == "completed" for r in rows)
        assert rows[0]["decen_compressed_s"] < rows[1]["decen_compressed_s"]

    def test_latency_axis_cost_rows(self):
        cfg = config_from_dict({**BASE, "compressor": {"kind": "quantize", "levels": 127}})
        rows = sweep(cfg, "latency", [0.13e-3, 5e-3])
        assert [(r["value"], r["seed"], r["status"]) for r in rows] == [
            (0.13e-3, 0, "completed"), (5e-3, 0, "completed")]
        # the allreduce pays 2 (n - 1) latencies per step, gossip one
        assert rows[0]["allreduce_s"] < rows[1]["allreduce_s"]
        assert (rows[1]["allreduce_s"] - rows[0]["allreduce_s"]
                > rows[1]["decen_full_s"] - rows[0]["decen_full_s"])

    @pytest.mark.parametrize("axis,values,other", [
        ("bandwidth", [5e8, 2e6, 3e8], 1e-4),  # latency: the config's first entry
        ("latency", [0.0, 3e-3, 1e-4], 3e8),  # bandwidth: the config's first entry
    ])
    def test_cost_axis_rows_equal_the_cost_model(self, axis, values, other):
        rows = sweep(config_from_dict(COST_DOC), axis, values)
        for row, value in zip(rows, values, strict=True):
            point = ([value], [other]) if axis == "bandwidth" else ([other], [value])
            reference = cost_reference(*point)[0]
            assert row == {"axis": axis, "value": value, "seed": 0, "status": "completed",
                           **{k: reference[k] for k in cli.COST_ROW_FIELDS[4:]}}

    @pytest.mark.parametrize("axis,bad,message", [
        ("bandwidth", "nan,inf,-5.0,0.0", "network bandwidths entry must be a finite number > 0"),
        ("latency", "nan,inf,-1e-3", "network latencies entry must be a finite number >= 0"),
    ])
    def test_bad_cost_values_become_row_errors(self, tmp_path, axis, bad, message):
        # a swept value obeys the rules of the config's network section
        path = write_config(tmp_path, COST_DOC)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--axis", axis,
                     "--values", f"2.0,{bad},3.0", "--out", str(out)]) == 0
        # the status column onwards; an error message may hold a comma
        rows = [r[3:] for r in csv_rows(out)[1:]]
        assert len(rows) == 2 + bad.count(",") + 1
        assert rows[0][0] == "completed" and rows[-1][0] == "completed"
        for r in rows[1:-1]:
            assert r[0].startswith(f"config_error: {message}") and r[1:] == ["", "", ""]

    @pytest.mark.parametrize("axis,values,doc,message", [
        ("bandwidth", "2.0,nan", COST_DOC,
         "network bandwidths entry must be a finite number > 0, got nan"),
        ("gamma", "0.1,nan", BASE, "gamma must be a finite number > 0 or 'theory', got nan"),
    ])
    def test_error_rows_with_commas_are_quoted(self, tmp_path, axis, values, doc, message):
        # a cell holding a comma is quoted, so a csv reader sees every row as
        # wide as the header; the completed row keeps its bytes
        path = write_config(tmp_path, {**doc, "T": 20})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--axis", axis,
                     "--values", values, "--out", str(out)]) == 0
        header, done, failed = csv_rows(out)
        assert len(done) == len(header) and len(failed) == len(header)
        assert dict(zip(header, failed))["status"] == f"config_error: {message}"
        assert f'"config_error: {message}"' in out.read_text()
        assert ",".join(done) in out.read_text().splitlines()

    @pytest.mark.parametrize("axis", ["seed", "bandwidth", "latency"])
    def test_seeds_rejected_on_axes_that_do_not_take_them(self, tmp_path, capsys, axis):
        with pytest.raises(ConfigError, match="^--seeds applies only to the gamma/levels/n axes"):
            sweep(config_from_dict(COST_DOC), axis, [1], seeds=[4, 5])
        path = write_config(tmp_path, COST_DOC)
        argv = ["sweep", "--config", path, "--axis", axis, "--values", "1", "--seeds", "4,5"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("configuration error: --seeds ")
        assert err.count("\n") == 1

    def test_unknown_axis_rejected(self):
        cfg = config_from_dict(BASE)
        with pytest.raises(ConfigError):
            sweep(cfg, "momentum", [0.9])

    def test_cli_sweep_csv(self, tmp_path):
        path = write_config(tmp_path, {**BASE, "T": 30})
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", path, "--axis", "seed",
                     "--values", "0,1", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("axis,value,seed,status,gamma")
        assert len(lines) == 3


SUMMARY_FIELDS = [f.name for f in dataclasses.fields(engine.RunSummary)]


class TestOutputSchema:
    """Each output names its columns or keys after the type that holds the
    values: RunSummary for the run JSON and the sweep rows, TraceRecord for
    the trace, cost_grid's rows for the cost grid."""

    def test_sweep_header_and_run_keys_are_the_summary_fields(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BASE, "T": 20})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--axis", "seed", "--values", "0",
                     "--out", str(out)]) == 0
        assert csv_rows(out)[0] == ["axis", "value"] + SUMMARY_FIELDS
        assert main(["run", "--config", path]) == 0
        assert list(json.loads(capsys.readouterr().out)) == sorted(SUMMARY_FIELDS)

    def test_sweep_cells_equal_the_run_json(self, tmp_path, capsys):
        # gamma 0.1 completes and reaches the threshold; gamma 5.0 diverges,
        # so its final values are inf and it has no threshold round
        path = write_config(tmp_path, BASE)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--axis", "gamma", "--values", "0.1,5.0",
                     "--out", str(out)]) == 0
        header, *rows = csv_rows(out)
        assert len(rows) == 2
        for row in rows:
            cells = dict(zip(header, row))
            gamma_path = write_config(tmp_path, {**BASE, "gamma": float(cells["value"])},
                                      name="gamma.json")
            capsys.readouterr()
            main(["run", "--config", gamma_path])
            doc = json.loads(capsys.readouterr().out)
            for key, value in doc.items():  # a number's cell is its repr
                assert cells[key] == ("" if value is None else
                                      value if isinstance(value, str) else repr(value))
        done, diverged = (dict(zip(header, row)) for row in rows)
        assert done["status"] == "completed" and done["time_to_threshold"] != ""
        assert diverged["status"] == "diverged" and diverged["time_to_threshold"] == ""
        assert diverged["final_loss"] == "inf"

    def test_cost_header_is_the_grid_row_keys(self, tmp_path):
        path = write_config(tmp_path, COST_DOC)
        out = tmp_path / "cost.csv"
        assert main(["cost", "--config", path, "--out", str(out)]) == 0
        grid = cost_reference([3e8, 1e6], [1e-4, 2e-3])
        assert csv_rows(out)[0] == list(grid[0])
        assert main(["sweep", "--config", path, "--axis", "latency", "--values", "0.0",
                     "--out", str(out)]) == 0
        assert csv_rows(out)[0] == ["axis", "value", "seed", "status"] + list(grid[0])[2:]

    def test_trace_header_is_the_record_fields(self, tmp_path):
        path = write_config(tmp_path, {**BASE, "T": 20})
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert csv_rows(out)[0] == [f.name for f in dataclasses.fields(engine.TraceRecord)]


class TestBatchedSweep:
    """Every axis runs its consecutive entries that differ only in seed and
    gamma as trial batches; every row must be the row the entry gives when
    it is swept on its own."""

    DOC = {**BASE, "algorithm": "dcd", "T": 30, "trace_every": 1,
           "problem": {"kind": "quadratic", "dim": 6, "heterogeneity": 0.5, "noise": 0.2},
           "compressor": {"kind": "quantize", "levels": 127}}

    def sweep_lines(self, tmp_path, *args, doc=None):
        path = write_config(tmp_path, doc or self.DOC)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, *args, "--out", str(out)]) == 0
        return out.read_bytes().splitlines(keepends=True)

    def test_seed_sweep_of_32_equals_solo_rows(self, tmp_path):
        seeds = [str(s) for s in range(32)]
        batched = self.sweep_lines(tmp_path, "--axis", "seed", "--values", ",".join(seeds))
        solo = [self.sweep_lines(tmp_path, "--axis", "seed", "--values", s) for s in seeds]
        assert batched == solo[0][:-1] + [lines[-1] for lines in solo]
        assert len({line.split(b",")[6] for line in batched[-32:]}) == 32  # final losses differ

    def test_gamma_sweep_with_seeds_equals_solo_rows(self, tmp_path):
        gammas, seeds = ("0.05", "1.5", "0.1"), ("4", "0", "9")
        batched = self.sweep_lines(tmp_path, "--axis", "gamma", "--values", ",".join(gammas),
                                   "--seeds", ",".join(seeds))
        solo = [self.sweep_lines(tmp_path, "--axis", "gamma", "--values", g, "--seeds", s)
                for g in gammas for s in seeds]
        assert batched == solo[0][:-1] + [lines[-1] for lines in solo]
        statuses = [line.split(b",")[3] for line in batched[-9:]]
        assert statuses.count(b"diverged") == 3 and statuses.count(b"completed") == 6

    @pytest.mark.parametrize("algorithm", engine.ALGORITHMS)
    @pytest.mark.parametrize("axis,values", [("levels", "1,7,127"), ("n", "5,8")])
    def test_levels_and_n_sweeps_with_seeds_equal_solo_rows(
            self, tmp_path, monkeypatch, axis, values, algorithm):
        # dcd's levels 1 and 7 are outside the budget on this ring of 8 at
        # dim 6 (alpha 2.4 and 0.35 against 0.073)
        doc = {**self.DOC, "algorithm": algorithm, "gamma": 0.05}
        seeds = ("0", "1", "2")
        solo = [self.sweep_lines(tmp_path, "--axis", axis, "--values", v, "--seeds", s, doc=doc)
                for v in values.split(",") for s in seeds]
        run, calls = engine.run, []

        def counted(configs):
            calls.append(len(configs))
            return run(configs)

        monkeypatch.setattr(engine, "run", counted)
        batched = self.sweep_lines(tmp_path, "--axis", axis, "--values", values,
                                   "--seeds", ",".join(seeds), doc=doc)
        assert batched == solo[0][:-1] + [lines[-1] for lines in solo]
        assert calls == [len(seeds)] * len(values.split(","))  # one batch per value
        assert len({line.split(b",")[6] for line in batched[-3:]}) == 3  # final losses differ

    def test_batch_length_stops_at_another_key(self):
        cfg = config_from_dict(self.DOC)
        configs = [cfg, dataclasses.replace(cfg, seed=4, gamma=0.2),
                   dataclasses.replace(cfg, T=31), cfg]
        assert engine.batch_length(configs) == 2
        assert engine.batch_length(configs[2:]) == 1
        assert engine.batch_length(iter(configs[3:])) == 1

    def test_batch_length_stops_at_the_first_configs_cap(self):
        def configs(n):
            cfg = config_from_dict({**self.DOC, "topology": {"kind": "ring", "n": n}})
            return [dataclasses.replace(cfg, seed=s) for s in range(30)]

        assert engine.batch_length(configs(8)) == 30
        # a ring of 200 fills the footprint budget sooner: the batch stops at
        # its first config's cap, however many configs share its key
        wide = configs(200)
        assert 1 < engine.batch_length(wide) == engine._batch_size(wide[0]) < 30
        assert engine.batch_length(configs(8) + wide) == 30

    @pytest.mark.parametrize("algorithm", engine.ALGORITHMS)
    def test_seeds_of_different_widths_in_one_batch_equal_solo_rows(self, tmp_path, algorithm):
        # a C1-shaped run.  Seeds 2**32 and 10**23 take two and three 32-bit
        # words, zero-padded to SeedSequence's 4-word pool as 7 is; 2**128
        # takes five, so its streams' keys are hashed in a group of their own
        doc = {**self.DOC, "algorithm": algorithm, "gamma": 0.05,
               "problem": {"kind": "quadratic", "dim": 8, "heterogeneity": 0.5, "noise": 0.2}}
        path = write_config(tmp_path, doc)
        seeds = ["7", "4294967296", "100000000000000000000000", str(2**128)]

        def lines(values):
            out = tmp_path / "sweep.csv"
            assert main(["sweep", "--config", path, "--axis", "seed", "--values", values,
                         "--out", str(out)]) == 0
            return out.read_bytes().splitlines(keepends=True)

        batched = lines(",".join(seeds))
        solo = [lines(s) for s in seeds]
        assert batched == solo[0][:-1] + [rows[-1] for rows in solo]
        assert len({line.split(b",")[6] for line in batched[-4:]}) == 4  # final losses differ

    def test_non_numeric_values_and_seeds_are_config_errors(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BASE, "T": 5})
        for args, message in (
                (["--axis", "seed", "--values", "1,x"], "--values entry 'x' is not an integer"),
                (["--axis", "seed", "--values", "1", "--seeds", "a"],
                 "--seeds entry 'a' is not an integer"),
                (["--axis", "gamma", "--values", "0.1,abc"], "--values entry 'abc' is not a number"),
                (["--axis", "gamma", "--values", "0.1", "--seeds", "0,1.5"],
                 "--seeds entry '1.5' is not an integer"),
                # an empty entry is not dropped, on either flag
                (["--axis", "gamma", "--values", "0.1,,0.2"], "--values entry '' is not a number"),
                (["--axis", "gamma", "--values", "0.1,"], "--values entry '' is not a number"),
                (["--axis", "gamma", "--values", "0.1", "--seeds", "1,,2"],
                 "--seeds entry '' is not an integer")):
            assert main(["sweep", "--config", path, *args]) == 1
            assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_bad_gamma_values_become_row_errors(self):
        cfg = config_from_dict({**BASE, "T": 20})
        rows = sweep(cfg, "gamma", [math.nan, math.inf, 0.0, -1.0, 0.05], seeds=[0, 1])
        statuses = [r["status"] for r in rows]
        assert all(s.startswith("config_error: gamma must be a finite number")
                   for s in statuses[:8])
        assert statuses[8:] == ["completed", "completed"]

    @pytest.mark.parametrize("axis,values,seeds,failing,error", [
        # a seed batch fails as a whole, then runs one entry at a time
        pytest.param("seed", "3,7,11", (), 7, MemoryError(), id="seed-3,7,11-7-error0"),
        # each n value is a batch of one entry
        pytest.param("n", "6,9,12", (), 9, MemoryError("Unable to allocate 298. GiB"),
                     id="n-6,9,12-9-error1"),
        # each n value's seeds are one batch: n 9's fails as a whole, then
        # each of its entries fails on its own
        pytest.param("n", "6,9,12", ("--seeds", "0,1"), 9,
                     MemoryError("Unable to allocate 298. GiB"), id="n-6,9,12-seeds-9-error2"),
    ])
    def test_out_of_memory_entry_becomes_a_row_error(
            self, tmp_path, monkeypatch, axis, values, seeds, failing, error):
        run = engine.run

        def run_or_fail(configs):
            if any((c.seed if axis == "seed" else c.topology.n) == failing for c in configs):
                raise error
            return run(configs)

        args = ("--axis", axis, "--values", values, *seeds)
        whole = self.sweep_lines(tmp_path, *args)
        monkeypatch.setattr(engine, "run", run_or_fail)
        lines = self.sweep_lines(tmp_path, *args)
        message = str(error) or "out of memory"
        per = len(seeds[1].split(",")) if seeds else 1  # rows per value
        rows = [line.split(b",") for line in lines[-3 * per:]]
        assert [r[3] for r in rows] == ([b"completed"] * per
                                        + [f"config_error: {message}".encode()] * per
                                        + [b"completed"] * per)
        for k in [*range(per), *range(2 * per, 3 * per)]:  # the rows that did not fail
            assert lines[-3 * per + k] == whole[-3 * per + k]

    def test_sweep_split_into_several_batches_equals_solo_rows(self, tmp_path, monkeypatch):
        # 12 seeds and 9 gamma entries in batches of at most 5 trials; a
        # diverging trial (gamma 1.5) lands in two different batches
        seeds = [str(s) for s in range(12)]
        solo = [self.sweep_lines(tmp_path, "--axis", "seed", "--values", s) for s in seeds]
        gamma_args = ("--axis", "gamma", "--values", "0.05,1.5,0.1", "--seeds", "4,0,9")
        whole = self.sweep_lines(tmp_path, *gamma_args)
        monkeypatch.setattr(engine, "MAX_TRIALS", 5)
        assert engine._batch_size(config_from_dict(self.DOC)) == 5
        split = self.sweep_lines(tmp_path, "--axis", "seed", "--values", ",".join(seeds))
        assert split == solo[0][:-1] + [lines[-1] for lines in solo]
        assert self.sweep_lines(tmp_path, *gamma_args) == whole

    def test_batch_size_follows_the_trial_footprint(self):
        def size(**problem):
            cfg = config_from_dict({**self.DOC, "problem": problem})
            return engine._batch_size(cfg), engine._trial_bytes(cfg)

        assert size(kind="quadratic", dim=8)[0] == engine.MAX_TRIALS
        # a dim-1024 design matrix (8 MB) or 512 samples of dim 64 on each
        # of 8 nodes fill the budget alone: such sweeps run one trial at a time
        assert size(kind="quadratic", dim=1024)[0] == 1
        assert size(kind="logistic", dim=64, samples_per_node=512)[0] == 1
        trials, footprint = size(kind="quadratic", dim=128)
        assert 1 < trials < engine.MAX_TRIALS and trials * footprint <= engine.BATCH_BYTES

    def test_batch_size_of_the_measured_shapes(self):
        # the shapes of the MAX_TRIALS comment keep their batch sizes: the
        # per-trial budget does not count the draw blocks, which come on top
        sizes = [engine._batch_size(config_from_dict({
            **BASE, "algorithm": "dcd", "topology": {"kind": "ring", "n": n},
            "problem": {"kind": "quadratic", "dim": dim},
            "compressor": {"kind": "quantize", "levels": 127}}))
            for n, dim in ((8, 8), (16, 64), (256, 16), (8, 1024))]
        assert sizes == [64, 36, 9, 1]
        assert engine.BATCH_BYTES == 7 * 2**20

    def test_huge_levels_value_becomes_a_row_error(self):
        cfg = config_from_dict({**self.DOC, "T": 10})
        rows = sweep(cfg, "levels", [10**400, 127])
        assert rows[0]["status"].startswith("config_error: levels must fit in a float")
        assert rows[1]["status"] == "completed"
