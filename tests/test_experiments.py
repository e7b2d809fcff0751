"""Experiment runner: config validation, reproducibility, CLI contract."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from hypercouple import (
    DomainError,
    ExperimentConfig,
    run_experiment,
    validate_gamma_epsilon,
)
from hypercouple import (coupling, experiments, hamilton, oracle, process,
                         samplers, switchings)
from hypercouple.experiments import (
    _parse_p_mode,
    config_from_args,
    main,
)


def data_digests(path):
    out = {}
    for name in sorted(os.listdir(path)):
        if name == "manifest.json":
            continue
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_json(path, name="summary.json"):
    with open(os.path.join(path, name)) as fh:
        return json.load(fh)


class TestConfig:
    def test_kind_and_ranges(self):
        with pytest.raises(DomainError):
            ExperimentConfig(kind="frobnicate")
        with pytest.raises(DomainError):
            ExperimentConfig(kind="sample", trials=0)
        with pytest.raises(DomainError):
            ExperimentConfig(kind="sample", jobs=0)
        with pytest.raises(DomainError):
            ExperimentConfig(kind="sample", fmt="xml")
        with pytest.raises(DomainError, match="seed"):
            ExperimentConfig(kind="sample", seed=-1)

    def test_p_mode_parser(self):
        assert _parse_p_mode("exact") == ("exact", 0)
        assert _parse_p_mode("mc:500") == ("mc", 500)
        with pytest.raises(DomainError):
            _parse_p_mode("montecarlo")

    def test_cli_arg_mapping(self):
        cfg = config_from_args(
            ["couple", "--n", "6", "--k", "3", "--d", "2", "--gamma", "0.75",
             "--traces", "40", "--seed", "9", "--jobs", "2"])
        assert cfg.kind == "couple" and cfg.trials == 40 and cfg.seed == 9
        assert cfg.options["gamma"] == 0.75


class TestReproducibility:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sample_outputs_independent_of_parallelism(self, tmp_path, jobs):
        out = tmp_path / f"j{jobs}"
        cfg = ExperimentConfig(kind="sample", seed=5, trials=6, jobs=jobs,
                               out=str(out), fmt="csv",
                               options={"model": "regular", "n": 6, "k": 3,
                                        "d": 2})
        man = run_experiment(cfg)
        digests = data_digests(out)
        assert man.digests == digests
        # stash against the canonical single-job run
        ref = tmp_path / "ref"
        run_experiment(ExperimentConfig(
            kind="sample", seed=5, trials=6, jobs=1, out=str(ref), fmt="csv",
            options={"model": "regular", "n": 6, "k": 3, "d": 2}))
        assert data_digests(ref) == digests

    def test_identical_runs_have_identical_digests(self, tmp_path):
        opts = {"n": 6, "k": 3, "d": 2, "gamma": 0.75}
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run_experiment(ExperimentConfig(kind="couple", seed=3, trials=50,
                                            out=str(out), options=dict(opts)))
            runs.append(data_digests(out))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("emit", [False, True])
    def test_lane_chunks_are_byte_identical_across_jobs(self, tmp_path,
                                                         emit):
        # 70 trials: one chunk of 70, two of 35, three below the batching
        # threshold, each walked lane by lane
        assert 70 // 3 < coupling._LANES_MIN <= 35
        runs = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"j{jobs}"
            assert main(["couple", "--n", "6", "--k", "3", "--d", "2",
                         "--gamma", "0.75", "--trials", "70", "--seed", "4",
                         "--jobs", jobs, "--out", str(out)]
                        + ["--emit-traces"] * emit) == 0
            runs.append(data_digests(out))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("params,gamma", [
        ((6, 3, 2), "0.75"), ((7, 3, 3), "0.5714285714285714"),
        ((8, 2, 3), "0.75"), ((9, 3, 2), "0.5")])
    def test_lane_rows_are_the_traces_rows(self, tmp_path, params, gamma):
        # the rows `--emit-traces` writes, rebuilt from run_coupling alone
        n, k, d = params
        out = tmp_path / "lanes"
        assert main(["couple", "--n", str(n), "--k", str(k), "--d", str(d),
                     "--gamma", gamma, "--trials", "40", "--seed", "6",
                     "--emit-traces", "--out", str(out)]) == 0
        config = coupling.CouplingConfig(
            coupling.Params(n, k, d), float(gamma),
            coupling.choose_epsilon(coupling.Params(n, k, d), float(gamma)))
        rows = ["trial,t,xi,A_t,branch"]
        for i, rng in enumerate(samplers.RngStream.trials(6, 40)):
            for s in coupling.run_coupling(config, rng).steps:
                cells = (i, s.index, s.coin, s.near_uniform, s.branch)
                rows.append(",".join("" if x is None else str(int(x))
                                     if isinstance(x, bool) else str(x)
                                     for x in cells))
        assert (out / "rows.csv").read_text().splitlines() == rows

    def test_mc_couple_independent_of_parallelism(self, tmp_path):
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            assert main(["couple", "--n", "4", "--k", "2", "--d", "3",
                         "--gamma", "0.5", "--p-mode", "mc:200",
                         "--emit-traces", "--trials", "4", "--seed", "8",
                         "--jobs", jobs, "--out", str(out)]) == 0
            runs.append(data_digests(out))
        assert runs[0] == runs[1]
        rows = (tmp_path / "j1" / "rows.csv").read_text().splitlines()
        assert any(r.endswith(",excess") for r in rows)

    def test_manifest_shape(self, tmp_path):
        out = tmp_path / "m"
        run_experiment(ExperimentConfig(kind="sample", seed=1, trials=2,
                                        out=str(out),
                                        options={"model": "gnm", "n": 5,
                                                 "k": 2, "m": 3}))
        man = read_json(out, "manifest.json")
        assert man["kind"] == "sample"
        assert man["config"]["seed"] == 1
        assert "wall_clock_s" in man
        assert set(man["digests"]) == set(data_digests(out))


class TestRunners:
    def test_couple_summary_fields(self, tmp_path):
        out = tmp_path / "c"
        run_experiment(ExperimentConfig(
            kind="couple", seed=2, trials=60, out=str(out),
            options={"n": 6, "k": 3, "d": 2, "gamma": 0.75}))
        s = read_json(out)
        for key in ("contained_rate", "A_all_rate", "S_lt_m_rate",
                    "accepted_mean", "chebyshev_bound_S_lt_m", "tv_checks"):
            assert key in s
        assert s["interval_method"] == "wilson-95"
        assert s["tv_checks"]["family_size"] == 75
        assert 0.0 <= s["contained_rate"]["rate"] <= 1.0

    def test_couple_emit_traces_rows(self, tmp_path):
        out = tmp_path / "e"
        run_experiment(ExperimentConfig(
            kind="couple", seed=2, trials=3, out=str(out),
            options={"n": 4, "k": 2, "d": 2, "gamma": 0.75,
                     "emit_traces": True}))
        rows = (out / "rows.csv").read_text().splitlines()
        assert rows[0] == "trial,t,xi,A_t,branch"
        assert len(rows) == 1 + 3 * 4        # M=4 steps per trace

    def test_gnp_needs_explicit_p_at_large_gamma(self, tmp_path):
        cfg = ExperimentConfig(kind="couple-gnp", seed=0, trials=5,
                               out=str(tmp_path / "g"),
                               options={"n": 6, "k": 3, "d": 2,
                                        "gamma": 0.75})
        with pytest.raises(DomainError, match="gamma < 1/2"):
            run_experiment(cfg)

    def test_switching_verify_balances(self, tmp_path):
        out = tmp_path / "s"
        run_experiment(ExperimentConfig(
            kind="switching-verify", seed=0, out=str(out),
            options={"n": 5, "k": 2, "d": 2, "switch_kind": "pair_degree",
                     "u": 1, "v": 2}))
        s = read_json(out)
        assert s["balanced"] is True
        assert s["interval"]["is_interval"] is True

    def test_oracle_dump_matches_known_counts(self, tmp_path):
        out = tmp_path / "o"
        run_experiment(ExperimentConfig(
            kind="oracle-dump", seed=0, out=str(out),
            options={"n": 6, "k": 3, "d": 2}))
        s = read_json(out)
        assert s["unordered_completions"] == 75
        assert s["ordered_completions"] == 1800
        assert s["simplicity_probability"] == "24/77"

    def test_process_stats_summary(self, tmp_path):
        out = tmp_path / "p"
        run_experiment(ExperimentConfig(
            kind="process-stats", seed=4, trials=150, out=str(out),
            options={"n": 9, "k": 3, "d": 2}))
        s = read_json(out)
        assert s["envelope_a"] == 15.0
        assert s["envelope_exceed_rate"] == 0.0
        assert s["max_abs_mean_z"] < 5.0

    def test_hamilton_sweep_rows(self, tmp_path):
        out = tmp_path / "h"
        run_experiment(ExperimentConfig(
            kind="hamilton-sweep", seed=1, trials=6, out=str(out),
            options={"n": 8, "k": 3, "ell": 2, "d_values": [3, 21]}))
        rows = (out / "rows.csv").read_text().splitlines()
        assert rows[0].startswith("d,trials,ham")
        s = read_json(out)
        assert s["p_hat"]["21"] == 1.0


class TestAdvisory:
    def test_feasible_and_infeasible_cases(self):
        good = validate_gamma_epsilon(20, 3, 6, 0.9)
        assert good["feasible"] and good["suggested_epsilon"] is not None
        tight = validate_gamma_epsilon(30, 3, 8, 0.75)
        assert not tight["feasible"]

    def test_gamma_one_is_never_feasible(self):
        rep = validate_gamma_epsilon(20, 3, 6, 1.0)
        assert not rep["feasible"]          # strict gamma < 1 boundary
        assert rep["suggested_epsilon"] is None
        assert "outside (0, 1)" in rep["epsilon_error"]

    def test_small_k_remark_present(self):
        rep = validate_gamma_epsilon(20, 3, 6, 0.9)
        assert rep["k_le_7_note"] is not None


class TestCliBoundary:
    def test_exit_zero_and_stdout_json(self, capsys):
        rc = main(["oracle-dump", "--n", "4", "--k", "2", "--d", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["unordered_completions"] == 3

    def test_config_errors_exit_two(self, capsys):
        assert main(["sample", "--n", "5", "--k", "3", "--d", "2"]) == 2
        assert main(["couple", "--n", "6", "--k", "3", "--d", "2",
                     "--gamma", "0.01"]) == 2
        assert main(["bogus-subcommand"]) == 2

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "6", "--k", "3"],
        ["sample", "--n", "6", "--k", "3", "--model", "gnm"],
        ["sample", "--n", "6", "--k", "3", "--model", "gnp"],
        ["sample", "--n", "4", "--k", "1", "--model", "gnm", "--m", "2"],
        ["couple", "--n", "6", "--k", "3", "--d", "2", "--gamma", "0.75",
         "--p-mode", "mc:x"],
        ["couple", "--n", "6", "--k", "3", "--d", "2", "--gamma", "0.75",
         "--p-mode", "mc:0"],
        ["process-stats", "--n", "9", "--k", "3", "--d", "2", "--a", "-1"],
        ["switching-verify", "--n", "6", "--k", "3", "--d", "2",
         "--switch-kind", "pair_degree", "--u", "1", "--v", "9"],
        ["hamilton-sweep", "--n", "6", "--k", "3", "--ell", "3",
         "--d-list", "3"],
        ["couple", "--n", "6", "--k", "3", "--d", "2", "--gamma", "0.75",
         "--seed", "-1"],
    ])
    def test_bad_or_missing_options_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("argv", [
        ["hamilton-sweep", "--n", "8", "--k", "2", "--ell", "1",
         "--d-list", "a"],
        ["switching-verify", "--n", "6", "--k", "2", "--d", "2",
         "--switch-kind", "remove_edge", "--edge", "1,x"],
        ["oracle-dump", "--n", "6", "--k", "3", "--d", "2",
         "--base", "1,2;x"],
    ])
    def test_malformed_list_flags_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert "expected comma-separated integers" in capsys.readouterr().err

    def test_list_flags_parse_into_options(self):
        cfg = config_from_args(["oracle-dump", "--n", "6", "--k", "3",
                                "--d", "2", "--base", "1,2,3; 4,5,6;"])
        assert cfg.options == {"n": 6, "k": 3, "d": 2,
                               "base_edges": [(1, 2, 3), (4, 5, 6)]}
        cfg = config_from_args(["switching-verify", "--n", "6", "--k", "2",
                                "--d", "2", "--switch-kind", "remove_edge",
                                "--edge", "2,1"])
        assert cfg.options["edge"] == (2, 1) and "base_edges" not in cfg.options
        cfg = config_from_args(["hamilton-sweep", "--n", "8", "--k", "2",
                                "--ell", "1", "--d-list", "3,2"])
        assert cfg.options["d_values"] == (3, 2)

    def test_a_repeated_degree_is_refused(self, monkeypatch, capsys):
        # both copies would run the same streams under one p_hat entry
        drawn = []
        monkeypatch.setattr(hamilton, "sample_regular",
                            lambda *args: drawn.append(args))
        assert main(["hamilton-sweep", "--n", "8", "--k", "2", "--ell", "1",
                     "--d-list", "2,3,2"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not drawn

    def test_the_sweep_takes_no_budget_flag(self, monkeypatch, capsys):
        # the finder reads the one environment budget, as every count does
        drawn = []
        monkeypatch.setattr(hamilton, "sample_regular",
                            lambda *args: drawn.append(args))
        assert main(["hamilton-sweep", "--n", "8", "--k", "2", "--ell", "1",
                     "--d-list", "2", "--node-budget", "5"]) == 2
        assert "--node-budget" in capsys.readouterr().err
        assert not drawn

    def test_sweep_workers_read_the_environment_budget(self, tmp_path,
                                                       monkeypatch):
        # one node a search: every trial in every worker runs out of budget
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", "1")
        out = tmp_path / "h"
        assert main(["hamilton-sweep", "--n", "8", "--k", "3", "--ell", "2",
                     "--d-list", "15,21", "--trials", "3", "--jobs", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        s = read_json(out)
        assert s["unknown_total"] == 6 and s["p_hat"] == {"15": 0.0,
                                                          "21": 0.0}

    @pytest.mark.parametrize("n,k,ell", [(6, 3, 4), (3, 3, 2)])
    def test_bad_cycle_shape_is_rejected_before_any_sample(
            self, n, k, ell, monkeypatch, capsys):
        # stride k - ell = -1 divides every n; n = 3 < 2k - ell = 4
        drawn = []
        monkeypatch.setattr(hamilton, "sample_regular",
                            lambda *args: drawn.append(args))
        assert main(["hamilton-sweep", "--n", str(n), "--k", str(k),
                     "--ell", str(ell), "--d-list", "1"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not drawn

    @pytest.mark.parametrize("edge, rc", [
        ("2,1", 0), ("1,1", 2), ("1,9", 2), ("0,3", 2), ("1,2,3", 2),
    ])
    def test_remove_edge_checks_and_canonicalises_the_edge(self, edge, rc,
                                                           tmp_path, capsys):
        argv = ["switching-verify", "--n", "6", "--k", "2", "--d", "2",
                "--switch-kind", "remove_edge", "--seed", "0"]
        out = tmp_path / "given"
        assert main(argv + ["--edge", edge, "--out", str(out)]) == rc
        if rc:
            assert capsys.readouterr().err.startswith("config error: ")
            return
        sorted_out = tmp_path / "sorted"
        assert main(argv + ["--edge", "1,2", "--out", str(sorted_out)]) == 0
        assert data_digests(out) == data_digests(sorted_out)
        assert read_json(out)["balanced"] is True

    def test_exhausted_budget_exits_two(self, capsys, monkeypatch):
        # a family cached by an earlier test would be served without a walk
        oracle._cached_family.cache_clear()
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", "50")
        rc = main(["oracle-dump", "--n", "6", "--k", "3", "--d", "2"])
        assert rc == 2
        assert "budget exhausted" in capsys.readouterr().err

    def test_oracle_dump_reads_simplicity_off_the_listed_family(
            self, tmp_path, capsys, monkeypatch):
        # the ordered-tail walk would need 11,205 * 7! leaves at (7,3,3)
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", "1000000")
        out = tmp_path / "o"
        rc = main(["oracle-dump", "--n", "7", "--k", "3", "--d", "3",
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        s = read_json(out)
        assert s["unordered_completions"] == 11205
        assert s["simplicity_probability"] == "4901067/56581525"

    def test_tv_check_skipped_when_family_outruns_budget(self, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", "100000")
        out = tmp_path / "c"
        rc = main(["couple", "--n", "15", "--k", "3", "--d", "2",
                   "--gamma", "0.5", "--p-mode", "mc:5", "--trials", "2",
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        s = read_json(out)
        assert s["trials"] == 2
        assert "100000 nodes" in s["tv_checks"]["skipped"]
        assert len((out / "rows.csv").read_text().splitlines()) == 3

    def test_mc_tv_size_is_the_completion_count(self, tmp_path,
                                                 monkeypatch):
        # (12,3,2): U1 = 27,537,300 graphs through (1,2,3), so
        # 220 * U1 / 8 = 757,275,750 in all, past the 20,000 limit; the
        # count lists nothing and no walk runs
        monkeypatch.delenv("HYPERCOUPLE_NODE_BUDGET", raising=False)
        counted = []
        real = experiments.completion_count

        def spy(G, params):
            counted.append((G.edges, real(G, params)))
            return counted[-1][1]

        def no_walk(*args, **kwargs):
            raise AssertionError("count_extensions was called")

        monkeypatch.setattr(experiments, "completion_count", spy)
        monkeypatch.setattr(oracle, "count_extensions", no_walk)
        out = tmp_path / "c"
        assert main(["couple", "--n", "12", "--k", "3", "--d", "2",
                     "--gamma", "0.5", "--p-mode", "mc:2", "--trials", "1",
                     "--seed", "1", "--out", str(out)]) == 0
        assert counted == [(((1, 2, 3),), 27_537_300)]
        assert read_json(out)["tv_checks"] is None

    def test_mc_tv_count_is_charged_to_the_node_budget(self, tmp_path,
                                                       monkeypatch):
        # (9,3,2): the 8,730 graphs through (1,2,3) are counted in 2,316
        # child states, and 84 * 8,730 / 6 = 122,220 graphs in all, past the
        # 20,000 limit; one node short, the check is skipped, not dropped
        argv = ["couple", "--n", "9", "--k", "3", "--d", "2", "--gamma",
                "0.5", "--p-mode", "mc:2", "--trials", "1", "--seed", "1"]
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", "2316")
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert read_json(tmp_path / "a")["tv_checks"] is None
        monkeypatch.setenv("HYPERCOUPLE_NODE_BUDGET", "2315")
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        skipped = read_json(tmp_path / "b")["tv_checks"]["skipped"]
        assert "2315 nodes" in skipped
        # the trials stand either way
        assert (tmp_path / "a" / "rows.csv").read_bytes() \
            == (tmp_path / "b" / "rows.csv").read_bytes()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random costs a CLI call several ms of import; runs that draw
        # nothing (oracle-dump, switching-verify, validate-params) and the
        # set-up of those that do must not pay it
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, hypercouple.experiments; "
                 "print(sorted(m for m in sys.modules "
                 "if m.startswith('numpy.random')))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestTracedNames:
    """The benchmark measures its per-layer metrics by wrapping ten public
    callables by name, in every module that holds them.  A refactor that
    stops calling one of them loses that layer's metric, so each must still
    be reached by the runs the benchmark makes."""

    TRACED = [
        (samplers.RngStream, "generator"),
        (samplers, "sample_regular"),
        (samplers, "simplicity_probability"),
        (process, "residual_report"),
        (oracle, "count_extensions"),
        (oracle, "switching_class_sizes"),
        (coupling, "run_coupling"),
        (switchings, "forward_count"),
        (switchings, "backward_count"),
        (experiments, "run_experiment"),
    ]

    RUNS = [
        ["switching-verify", "--n", "7", "--k", "2", "--d", "2",
         "--switch-kind", "pair_degree", "--u", "1", "--v", "2"],
        ["switching-verify", "--n", "9", "--k", "3", "--d", "2",
         "--switch-kind", "pair_degree", "--u", "1", "--v", "2",
         "--base", "3,4,5"],
        ["couple", "--n", "6", "--k", "3", "--d", "2", "--gamma", "0.75",
         "--trials", "20"],
        ["process-stats", "--n", "60", "--k", "3", "--d", "6",
         "--trials", "5"],
    ]

    def test_every_traced_callable_is_reached(self, tmp_path, monkeypatch):
        results: dict[str, list[type]] = {}
        reached_by: dict[str, set[str]] = {}  # callable -> subcommands
        current = [None]
        modules = [m for name, m in sys.modules.items()
                   if name == "hypercouple" or name.startswith("hypercouple.")]
        for owner, attr in self.TRACED:
            original = getattr(owner, attr)

            def spy(*args, _fn=original, _name=attr, **kwargs):
                result = _fn(*args, **kwargs)
                results.setdefault(_name, []).append(type(result))
                reached_by.setdefault(_name, set()).add(current[0])
                return result

            if isinstance(owner, type):
                monkeypatch.setattr(owner, attr, spy)
                continue
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is original:
                        monkeypatch.setattr(mod, key, spy)
        # each benchmark round is a fresh process: nothing listed yet
        oracle._cached_family.cache_clear()
        oracle.prefix_tree.cache_clear()
        for i, argv in enumerate(self.RUNS):
            current[0] = argv[0]
            assert main(argv + ["--seed", "1", "--jobs", "1",
                                "--out", str(tmp_path / str(i))]) == 0
        # the couple workloads' listing and traces are measured here
        for name in ("count_extensions", "run_coupling"):
            assert "couple" in reached_by.get(name, ()), (
                f"the couple run never called {name}")
        # exact couple draws from Pcg64Stream and builds no numpy Generator,
        # so the couple workloads read the stream layer from their
        # process-stats census
        assert reached_by["generator"] == {"process-stats"}
        for name in ("forward_count", "backward_count",
                     "switching_class_sizes", "count_extensions",
                     "run_coupling", "residual_report", "sample_regular",
                     "generator"):
            assert results.get(name), f"{name} was never called"
        for name in ("forward_count", "backward_count"):
            assert set(results[name]) == {int}
