"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_all_subcommands(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        assert parser.parse_args(["table1"]).scale == "ci"
        args = parser.parse_args(["figure", "fig01", "--scale", "tiny"])
        assert args.name == "fig01" and args.scale == "tiny"
        args = parser.parse_args(
            ["simulate", "--graph", "cm", "--scheme", "fos", "--rounds", "7"]
        )
        assert args.graph == "cm" and args.rounds == 7


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "table1" in out

    def test_table1(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "torus-1000" in out
        assert "1.99208" in out  # paper-scale analytic beta

    def test_figure(self, capsys, tmp_path):
        code = main(
            [
                "figure",
                "fig08",
                "--scale",
                "tiny",
                "--rounds",
                "60",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig08" in out
        assert (tmp_path / "fig08.json").exists()

    def test_simulate(self, capsys):
        code = main(
            [
                "simulate",
                "--graph",
                "torus-1000",
                "--scale",
                "tiny",
                "--rounds",
                "80",
                "--switch-round",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "switched to FOS after round 40" in out
        assert "max-avg" in out

    def test_simulate_fos_identity(self, capsys):
        code = main(
            [
                "simulate", "--graph", "hypercube", "--scale", "tiny",
                "--scheme", "fos", "--rounding", "identity", "--rounds", "30",
            ]
        )
        assert code == 0

    def test_render(self, capsys, tmp_path):
        code = main(["render", "--out", str(tmp_path / "frames"), "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "frames written" in out


class TestSimulateArrivals:
    def test_simulate_dynamic_poisson(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-1000", "--scale", "tiny",
                "--rounds", "60", "--avg-load", "50",
                "--arrivals", "poisson:2.0,depart=1.0",
                "--engine", "batched",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "arrivals=poisson:2.0,depart=1.0" in out
        assert "steady-state imbalance" in out
        assert "max-avg" in out

    def test_simulate_dynamic_ensemble(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-1000", "--scale", "tiny",
                "--rounds", "40", "--avg-load", "50",
                "--arrivals", "burst:200/10", "--replicas", "3",
                "--engine", "batched",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "m0_steady_state_mean" in out

    def test_simulate_dynamic_hotspot_reference(self, capsys):
        code = main(
            [
                "simulate", "--graph", "hypercube", "--scale", "tiny",
                "--rounds", "30", "--avg-load", "20",
                "--arrivals", "hotspot:0,1:5", "--engine", "reference",
            ]
        )
        assert code == 0
        assert "steady-state imbalance" in capsys.readouterr().out

    def test_simulate_bad_arrival_spec_raises(self):
        with pytest.raises(SystemExit, match="invalid configuration"):
            main(
                [
                    "simulate", "--graph", "torus-1000", "--scale", "tiny",
                    "--rounds", "10", "--arrivals", "bogus:1",
                ]
            )


class TestScalingFlags:
    """The large-n knobs: --fast-path, --tile-size, --record-mode, --seeds."""

    def test_simulate_fast_path_spectral(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--rounding", "identity", "--rounds", "60",
                "--engine", "batched", "--record-fields", "node",
                "--fast-path", "spectral",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max-avg" in out
        assert "min-transient" not in out  # excluded column stays silent

    def test_simulate_tiled_summary(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--rounds", "50", "--engine", "batched",
                "--tile-size", "17", "--record-mode", "summary",
            ]
        )
        assert code == 0
        assert "max-avg" in capsys.readouterr().out

    def test_simulate_tile_auto(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--rounds", "30", "--engine", "batched",
                "--tile-size", "auto", "--memory-budget-mb", "0.05",
            ]
        )
        assert code == 0

    def test_simulate_bad_tile_size(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--engine", "batched", "--tile-size", "huge",
                ]
            )

    def test_simulate_batch_arrival_sampling(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--rounds", "40", "--engine", "batched",
                "--arrivals", "poisson:2.0,depart=2.0",
                "--arrival-sampling", "batch", "--replicas", "4",
            ]
        )
        assert code == 0
        assert "steady-state" in capsys.readouterr().out

    def test_figure_seeds_ensemble(self, capsys, tmp_path):
        code = main(
            [
                "figure", "fig02", "--scale", "tiny", "--rounds", "60",
                "--engine", "batched", "--seeds", "3",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "fig02.json").exists()

    def test_figure_rounds_on_driver_without_rounds_warns(self, capsys):
        """fig09_11 renders fixed snapshot rounds: --rounds is refused with
        a message instead of reaching the driver as an unknown argument."""
        code = main(["figure", "fig09_11", "--scale", "tiny", "--rounds", "40"])
        assert code == 0
        assert "fig09_11 takes none" in capsys.readouterr().err

    def test_figure_seeds_on_single_seed_driver_warns(self, capsys):
        code = main(
            ["figure", "fig06", "--scale", "tiny", "--rounds", "40",
             "--seeds", "3"]
        )
        assert code == 0
        assert "single-seed" in capsys.readouterr().err


class TestEngineChoicesFromRegistry:
    def test_engine_choices_track_the_registry(self):
        """--engine choices come from the make_engine registry, so a new
        backend can never drift out of `simulate --help`."""
        from repro.engines import ENGINES

        parser = build_parser()
        sub = parser._subparsers._group_actions[0]
        for command in ("simulate", "figure"):
            action = next(
                a
                for a in sub.choices[command]._actions
                if "--engine" in a.option_strings
            )
            assert list(action.choices) == sorted(ENGINES)


class TestSweepFlag:
    def test_sweep_switch_rounds(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--rounds", "40", "--engine", "batched", "--replicas", "2",
                "--sweep", "switch-round=none,10,20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 points x 2 seed(s) = 6 replicas in ONE batched" in out
        assert "switch_round=never" in out
        assert "switch_round=20" in out

    def test_sweep_linspace_and_cross(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--rounds", "20", "--engine", "batched",
                "--sweep", "beta=1.2:1.8:3",
                "--sweep", "load-scale=0.5,1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "6 points x 1 seed(s) = 6 replicas" in out
        assert "beta=1.2,load_scale=0.5" in out

    def test_sweep_dynamic_arrival_scale(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--rounds", "15", "--engine", "batched",
                "--arrivals", "poisson:1.0",
                "--sweep", "arrival-scale=0.5,2.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "steady_state_mean" in out

    def test_sweep_rejects_unknown_key(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--sweep", "gamma=1:2:3",
                ]
            )

    def test_sweep_rejects_malformed_values(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--sweep", "beta=a:b:c",
                ]
            )

    def test_sweep_rejects_duplicate_axis(self):
        with pytest.raises(SystemExit, match="twice"):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--sweep", "beta=1.2,1.4", "--sweep", "beta=1.6",
                ]
            )


class TestRobustnessFlags:
    """--churn and --faults: parse, run, and reject with clean messages."""

    def test_simulate_churn_network(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--engine", "network", "--rounding", "floor",
                "--rounds", "20",
                "--churn", "crash:3@4-10; edge-:0-1@6",
            ]
        )
        assert code == 0
        assert "max-avg" in capsys.readouterr().out

    def test_simulate_churn_with_faults_and_arrivals(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--engine", "async", "--rounding", "floor",
                "--rounds", "15",
                "--churn", "random:0.3",
                "--faults", "drop:0.1",
                "--arrivals", "poisson:1.0,depart=0.5",
            ]
        )
        assert code == 0

    def test_simulate_faults_outage(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--engine", "network", "--rounding", "floor",
                "--rounds", "15",
                "--faults", "outage:0:1:2:9",
            ]
        )
        assert code == 0

    def test_bad_churn_spec_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown churn term"):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--rounds", "10", "--churn", "explode:1@2",
                ]
            )

    def test_bad_faults_spec_exits_cleanly(self):
        with pytest.raises(SystemExit, match="drop probability"):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--rounds", "10", "--faults", "drop:1.5",
                ]
            )

    def test_churn_sweep_exits_cleanly(self):
        # the sweep branch: the replica-parameter guard in config.validate
        with pytest.raises(SystemExit, match="invalid configuration: churn"):
            main(
                [
                    "simulate", "--scale", "tiny", "--rounds", "20",
                    "--engine", "staleness", "--churn", "crash:3@5",
                    "--sweep", "switch-round=none,10",
                ]
            )

    def test_churn_dynamic_staleness_exits_cleanly(self):
        # the dynamic branch: the staleness engine's prepare-time guard
        with pytest.raises(SystemExit, match="invalid configuration: the staleness"):
            main(
                [
                    "simulate", "--scale", "tiny", "--rounds", "20",
                    "--engine", "staleness", "--latency", "2",
                    "--arrivals", "poisson:3.0,depart=3.0",
                    "--churn", "crash:3@5",
                ]
            )

    def test_churn_with_switch_round_exits_cleanly(self):
        with pytest.raises(SystemExit, match="switch"):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--rounds", "10", "--churn", "crash:3@4",
                    "--switch-round", "5",
                ]
            )


class TestLatencyFlags:
    """--latency / --max-skew / --latency-buckets: run and reject."""

    def test_simulate_staleness_engine(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--engine", "staleness", "--rounding", "floor",
                "--rounds", "15", "--latency", "2", "--max-skew", "3",
                "--faults", "drop:0.1",
            ]
        )
        assert code == 0
        assert "max-avg" in capsys.readouterr().out

    def test_simulate_staleness_quantises_fractional_latency(self, capsys):
        code = main(
            [
                "simulate", "--graph", "torus-100", "--scale", "tiny",
                "--engine", "staleness", "--rounding", "floor",
                "--rounds", "10", "--latency", "1.5",
                "--latency-buckets", "nearest",
            ]
        )
        assert code == 0

    def test_bad_latency_spec_exits_cleanly(self):
        with pytest.raises(SystemExit, match="accepted forms"):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--rounds", "10", "--latency", "gaussian:1",
                ]
            )

    def test_negative_latency_mean_exits_cleanly(self):
        with pytest.raises(SystemExit, match="MEAN >= 0"):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--rounds", "10", "--latency", "exp:-1",
                ]
            )

    def test_negative_max_skew_exits_cleanly(self):
        with pytest.raises(SystemExit, match="max_skew"):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--rounds", "10", "--engine", "async",
                    "--max-skew", "-2",
                ]
            )

    def test_exact_buckets_reject_fractional_latency(self):
        with pytest.raises(SystemExit, match="integer link latencies"):
            main(
                [
                    "simulate", "--graph", "torus-100", "--scale", "tiny",
                    "--rounds", "10", "--engine", "staleness",
                    "--latency", "1.5", "--latency-buckets", "exact",
                ]
            )
