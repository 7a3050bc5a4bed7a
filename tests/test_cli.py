import multiprocessing
import os
import subprocess
import sys

import pytest

import zigzagsim
from zigzagsim import cli
from zigzagsim.scenario import (CONVERTERS, LossSpec, Scenario,
                                parse_scenario_text)

REFERENCE_CONFIG = """\
flow_count = 1
aggregate_rate_bps = 1.0e6
loss.kind = gilbert
loss.p = 0.01
loss.q = 0.5
policy = zigzag
duration_s = 120
warmup_s = 100
seed = 1
"""

TINY_MATRIX = """\
flows = 2
couples = 0.01:0.5
rates_bps = 1.0e6
kinds = gilbert
duration_s = 120
seed = 1
"""


def write(path, text):
    path.write_text(text)
    return str(path)


class TestRun:
    def test_run_writes_artifacts(self, tmp_path):
        config = write(tmp_path / "scenario.cfg", REFERENCE_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert any(f.endswith("_series.csv") for f in files)
        assert any(f.endswith("_trace.csv") for f in files)
        assert any(f.endswith("_summary.csv") for f in files)

    def test_repeated_run_byte_identical(self, tmp_path):
        config = write(tmp_path / "scenario.cfg", REFERENCE_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["run", "--config", config, "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", config, "--out", str(out2)]) == 0
        for name in os.listdir(out1):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, name

    def test_invalid_alpha_rejected(self, tmp_path):
        config = write(tmp_path / "bad.cfg",
                       REFERENCE_CONFIG + "alpha = 0.6\n")
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "out")]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        config = write(tmp_path / "bad.cfg",
                       REFERENCE_CONFIG + "bogus = 1\n")
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "out")]) == 1

    def test_missing_config_rejected(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("lines, field", [
        ("aggregate_rate_bps = nan", "aggregate_rate_bps"),
        ("duration_s = inf", "duration_s"),
        ("initial_ssthresh_pkts = inf", "initial_ssthresh_pkts"),
        ("warmup_s = -5", "warmup_s"),
        ("duration_s = 100", "duration_s"),
        ("feedback_size_bytes = -100000", "feedback_size_bytes"),
        ("strict_n4 = ture", "strict_n4"),
        ("flow_count = 1\nflow_count = 7", "flow_count"),
        ("loss.plr = 0.1", "loss.plr"),
        # 401 digits convert as an int, but the run cannot divide by it
        (f"packet_size_bytes = 1{'0' * 400}", "packet_size_bytes"),
        (f"feedback_size_bytes = 1{'0' * 400}", "feedback_size_bytes"),
        # each flow's share rounds to 0.0, which the run would divide by
        ("flow_count = 2\naggregate_rate_bps = 5e-324", "aggregate_rate_bps"),
        # 1.5e18 packets in 120 s: a run that would never finish
        ("aggregate_rate_bps = 1e20", "aggregate_rate_bps"),
    ], ids=["nan-rate", "inf-duration", "inf-ssthresh", "negative-warmup",
            "no-window", "negative-feedback", "not-a-boolean",
            "key-given-twice", "plr-of-gilbert", "401-digit-packet-size",
            "401-digit-feedback-size", "per-flow-rate-rounds-to-zero",
            "too-many-packets-offered"])
    def test_out_of_range_value_rejected(self, tmp_path, capsys, lines,
                                         field):
        # the reference config less the keys the case sets, so that a
        # case is rejected for its value, not as a key set twice
        keys = [line.partition("=")[0].strip() for line in lines.split("\n")]
        kept = [line for line in REFERENCE_CONFIG.splitlines()
                if line.partition("=")[0].strip() not in keys]
        config = write(tmp_path / "bad.cfg", "\n".join(kept + [lines, ""]))
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}:")
        assert ("set twice" in err) == (len(set(keys)) < len(keys))

    @pytest.mark.parametrize("text, key", [
        ("loss.plr = 0.1\n", "loss.plr"),
        ("loss.kind = uniform\nloss.p = 0.1\n", "loss.p"),
        ("loss.kind = uniform\nloss.plr = 0.1\nloss.q = 0.5\n", "loss.q"),
        ("loss.kind = none\nloss.q = 0.5\n", "loss.q"),
    ], ids=["plr-without-kind", "p-of-uniform", "q-of-uniform", "q-of-none"])
    def test_loss_field_the_kind_never_reads_rejected(self, tmp_path, capsys,
                                                      text, key):
        config = write(tmp_path / "bad.cfg", text)
        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}:")

    def test_strict_n4_booleans(self):
        for text, value in (("1", True), ("TRUE", True), ("Yes", True),
                            ("0", False), ("false", False), ("NO", False)):
            sc = parse_scenario_text(f"strict_n4 = {text}\n")
            assert sc.strict_n4 is value


# a valid value other than the default for every key of the flat format
NON_DEFAULT = {
    "flow_count": 3,
    "aggregate_rate_bps": 2.5e6,
    "policy": "zigzag",
    "duration_s": 250.5,
    "seed": 7,
    "queue_capacity_pkts": 20,
    "packet_size_bytes": 500,
    "feedback_size_bytes": 60,
    "alpha": 0.25,
    "warmup_s": 50.0,
    "strict_n4": True,
    "initial_ssthresh_pkts": 30.0,
    "loss.kind": "uniform",
    "loss.p": 0.02,
    "loss.q": 0.4,
    "loss.plr": 0.05,
}
# what a scenario needs beside a loss field's value for the field to be read
READER_LINES = {"loss.p": "loss.kind = gilbert\nloss.q = 0.4\n",
                "loss.q": "loss.kind = gilbert\n",
                "loss.plr": "loss.kind = uniform\n"}


class TestScenarioKeys:
    def test_keys_are_the_fields(self):
        expected = {name for name in Scenario._fields if name != "loss"} \
            | {f"loss.{name}" for name in LossSpec._fields}
        assert set(CONVERTERS) == expected == set(NON_DEFAULT)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_non_default_value_round_trips(self, key):
        value = NON_DEFAULT[key]
        is_loss = key.startswith("loss.")
        name = key.removeprefix("loss.")

        def read(sc):
            return getattr(sc.loss if is_loss else sc, name)

        assert read(Scenario()) != value
        text = READER_LINES.get(key, "") + f"{key} = {value}\n"
        parsed = read(parse_scenario_text(text))
        assert parsed == value and type(parsed) is type(value)


class TestScenarioRecords:
    """Scenario and LossSpec are values: immutable, equal and hashed by
    their fields, and changed only by making a new one."""

    @pytest.mark.parametrize("record,name", [
        (Scenario, "seed"), (Scenario, "loss"), (Scenario, "extra"),
        (LossSpec, "kind"), (LossSpec, "p"), (LossSpec, "extra")])
    def test_assignment_raises(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record(), name, 1)

    def test_equal_fields_are_equal_and_hash_equal(self):
        a, b = (Scenario(flow_count=5, seed=2,
                         loss=LossSpec("gilbert", p=0.01, q=0.5))
                for _ in range(2))
        assert a is not b and a.loss is not b.loss
        assert a == b and hash(a) == hash(b)
        assert a.loss == b.loss and hash(a.loss) == hash(b.loss)
        assert a != a._replace(seed=3)
        assert a.loss != a.loss._replace(q=0.6)

    def test_with_policy_returns_a_new_scenario(self):
        sc = Scenario(seed=3)
        zz = sc.with_policy("zigzag")
        assert type(zz) is Scenario and zz is not sc
        assert (sc.policy, zz.policy) == ("baseline", "zigzag")
        assert sc == Scenario(seed=3)
        assert zz == Scenario(seed=3, policy="zigzag")
        assert zz.key() == sc.key()


class TestMatrix:
    def test_tiny_matrix(self, tmp_path):
        spec = write(tmp_path / "matrix.cfg", TINY_MATRIX)
        out = tmp_path / "out"
        assert cli.main(["matrix", "--spec", spec, "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("flow_count,")
        assert len(summary) == 2  # one paired row
        # both runs' artifacts retained
        names = os.listdir(out)
        assert any("baseline" in n for n in names)
        assert any("zigzag" in n for n in names)

    def test_parallel_equals_serial(self, tmp_path):
        spec_text = TINY_MATRIX.replace("flows = 2", "flows = 1,2")
        spec = write(tmp_path / "matrix.cfg", spec_text)
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert cli.main(["matrix", "--spec", spec, "--out", str(out1),
                         "--jobs", "1"]) == 0
        assert cli.main(["matrix", "--spec", spec, "--out", str(out2),
                         "--jobs", "2"]) == 0
        assert (out1 / "summary.csv").read_bytes() \
            == (out2 / "summary.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, monkeypatch,
                                     jobs):
        monkeypatch.setattr(multiprocessing, "Pool", None)
        spec = write(tmp_path / "matrix.cfg", TINY_MATRIX)
        assert cli.main(["matrix", "--spec", spec, "--out",
                         str(tmp_path / "out"), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_pool_no_larger_than_the_pairs(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return [func(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        templates = [Scenario(duration_s=2.0, warmup_s=1.0, seed=seed)
                     for seed in (1, 2)]
        rows, failures = cli.run_matrix(templates, None, jobs=10_000)
        assert sizes == [2]
        assert len(rows) == 2 and failures == []

    def test_empty_matrix(self, tmp_path, capsys):
        # an axis with no value would expand to no pair at all
        spec = write(tmp_path / "matrix.cfg",
                     TINY_MATRIX.replace("flows = 2", "flows ="))
        out = tmp_path / "out"
        assert cli.main(["matrix", "--spec", spec, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: flows:")
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ("nonsense line", "line 1"),
        ("couples = 0.1", "couples"),
        ("couples = a:b", "couples"),
        ("flows = x", "flows"),
        ("policy = zigzag", "policy"),
    ], ids=["no-equals", "couple-without-colon", "couple-not-numbers",
            "flows-not-int", "policy"])
    def test_bad_spec_rejected(self, tmp_path, capsys, text, key):
        spec = write(tmp_path / "matrix.cfg", text + "\n")
        assert cli.main(["matrix", "--spec", spec,
                         "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("flows = 2", "flows = 1, 1", "flows"),
        ("couples = 0.01:0.5", "couples = 0.01:0.5, 0.010:0.50", "couples"),
        ("kinds = gilbert", "kinds = gilbert, uniform, gilbert", "kinds"),
        ("seed = 1", "seed = 1, 2, 1", "seed"),
        ("flows = 2", "flows = 2\nflows = 3", "flows"),
        ("flows = 2", "flows = 2\nflow_count = 5", "flow_count"),
        ("kinds = gilbert", "kinds = gilbert\nloss.kind = uniform",
         "loss.kind"),
        ("couples = 0.01:0.5\nrates_bps = 1.0e6\nkinds = gilbert",
         "couples = 0.01:0.5, 0.02:1.0\nrates_bps = 1.0e6\nkinds = uniform",
         "couples"),
    ], ids=["repeated-flows", "repeated-couple", "repeated-kind",
            "repeated-seed", "key-given-twice", "key-after-alias",
            "key-after-loss-alias", "couples-equal-as-uniform"])
    def test_repeat_rejected(self, tmp_path, capsys, old, new, key):
        # a repeated value or key would run a pair twice, over its own
        # artefacts, or silently drop a value
        spec = write(tmp_path / "matrix.cfg", TINY_MATRIX.replace(old, new))
        out = tmp_path / "out"
        assert cli.main(["matrix", "--spec", spec, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}:")
        assert not out.exists()

    def test_default_matrix_shape(self):
        templates = cli.expand_matrix(cli.load_matrix_spec(None))
        # {gilbert, uniform} x 3 couples x {1,5,10} flows x 2 rates
        assert len(templates) == 36
        assert all(t.policy == "baseline" for t in templates)
        kinds = {t.loss.kind for t in templates}
        assert kinds == {"gilbert", "uniform"}

    def test_default_matrix_order(self):
        expected = []
        for kind in ("gilbert", "uniform"):
            for p, q in ((0.001, 0.6), (0.01, 0.5), (0.1, 0.6)):
                loss = LossSpec("gilbert", p=p, q=q) if kind == "gilbert" \
                    else LossSpec("uniform", plr=p / (p + q))
                for flows in (1, 5, 10):
                    for rate in (1.0e6, 1.5e6):
                        expected.append(Scenario(flow_count=flows,
                                                 aggregate_rate_bps=rate,
                                                 loss=loss))
        assert cli.expand_matrix(cli.load_matrix_spec(None)) == expected

    def test_run_tags_unchanged(self):
        # the digest hashes repr(Scenario.key()): every field but policy,
        # in field order, so that earlier campaigns keep their file names
        assert Scenario().key() == (1, 1.0e6, LossSpec(), 500.0, 1, 50, 1000,
                                    40, 0.125, 100.0, False, 50.0)
        assert cli._run_tag(Scenario()) \
            == "none_plr0.000pct_1f_1Mbps_6eadbf39_seed1_baseline"
        sc = Scenario(flow_count=10, aggregate_rate_bps=1.5e6,
                      loss=LossSpec("gilbert", p=0.01, q=0.5), seed=3,
                      policy="zigzag")
        assert cli._run_tag(sc) \
            == "gilbert_plr1.961pct_10f_1.5Mbps_c3bf86b2_seed3_zigzag"

    def test_any_scenario_key_is_an_axis(self, tmp_path):
        # two couples with equal p/(p+q) and two queue sizes: four pairs
        # whose artefacts must not overwrite one another
        spec = write(tmp_path / "matrix.cfg", """\
flows = 1
couples = 0.01:0.5, 0.02:1.0
rates_bps = 1.0e6
kinds = gilbert
queue_capacity_pkts = 20, 50
duration_s = 110
""")
        templates = cli.expand_matrix(cli.load_matrix_spec(spec))
        assert [(t.loss.q, t.queue_capacity_pkts) for t in templates] \
            == [(0.5, 20), (0.5, 50), (1.0, 20), (1.0, 50)]
        out = tmp_path / "out"
        assert cli.main(["matrix", "--spec", spec, "--out", str(out)]) == 0
        names = [n for n in os.listdir(out) if n != "summary.csv"]
        assert len(names) == 16


class TestValidateLoss:
    def test_table_couple_passes(self, capsys):
        assert cli.main(["validate-loss", "--p", "0.01", "--q", "0.5",
                         "--n", "1000000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "analytic" in out

    def test_absorbing_good_state(self):
        assert cli.main(["validate-loss", "--p", "0", "--q", "0.6",
                         "--n", "100000"]) == 0

    def test_mean_burst_reported(self, capsys):
        assert cli.main(["validate-loss", "--p", "0.01", "--q", "0.5",
                         "--n", "1000000"]) == 0
        out = capsys.readouterr().out
        burst_line = next(l for l in out.splitlines()
                          if "empirical burst" in l)
        assert float(burst_line.split()[-1]) == pytest.approx(2.0, rel=0.05)

    def test_plr_z_score_reported(self, capsys):
        # a FAIL verdict on a correct chain: the 5 % tolerance is under two
        # standard errors of the PLR at p = 0.001, and the z-score shows it
        assert cli.main(["validate-loss", "--p", "0.001", "--q", "0.6",
                         "--n", "1000000", "--seed", "10"]) == 3
        out = capsys.readouterr().out
        z_line = next(l for l in out.splitlines() if "z-score" in l)
        assert "empirical PLR" not in z_line and "analytic" not in z_line
        plr_line = next(l for l in out.splitlines() if "empirical PLR" in l)
        plr = float(plr_line.split()[-1].rstrip("%")) / 100
        se = cli.plr_standard_error(0.001, 0.6, 10 ** 6)
        z = float(z_line.split()[2])
        # the printed PLR has 4 decimals of a percent, so z within 0.01
        assert z == pytest.approx((plr - 0.001 / 0.601) / se, abs=0.01)
        assert z == pytest.approx(1.87, abs=0.005)
        assert "FAIL" in out
        # a chain with no variance has no z-score
        assert cli.main(["validate-loss", "--p", "0", "--q", "0.6",
                         "--n", "100000"]) == 0
        assert "z-score        n/a" in capsys.readouterr().out

    def test_small_sample_rejected(self, capsys):
        assert cli.main(["validate-loss", "--p", "0.01", "--q", "0.5",
                         "--n", "1000"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --n must be >= 10^5, got 1000\n"

    def test_out_of_range_probability_rejected(self, capsys):
        # p = q = 0 has no steady state and no finite burst
        for p, q, key in (("1.5", "0.5", "loss.p"), ("nan", "0.5", "loss.p"),
                          ("0.01", "0", "loss.q"), ("0.01", "1.5", "loss.q"),
                          ("0", "0", "loss.q")):
            assert cli.main(["validate-loss", "--p", p, "--q", q,
                             "--n", "100000"]) == 1
            assert capsys.readouterr().err.startswith(f"error: {key}:")

    def test_usage_error_exit_code(self):
        assert cli.main(["frobnicate"]) == 1


DEFERRED_IMPORTS = ("multiprocessing", "hashlib", "argparse")


def fresh_interpreter_output(code):
    """What ``code`` prints in a fresh interpreter that imports this
    zigzagsim; pytest itself has loaded the modules the callers look for."""
    src = os.path.dirname(os.path.dirname(zigzagsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_library_use_and_validate_loss_load_no_deferred_import():
    """Only matrix --jobs N>1, artefact names and the determinism hashes
    load multiprocessing and hashlib, and only build_parser loads argparse."""
    code = ("import sys\n"
            "from zigzagsim import cli, harness, metrics, scenario\n"
            "cli.validate_loss_model(0.01, 0.5, 10**5, 1,"
            " report=lambda s: None)\n"
            f"print(sorted(set({DEFERRED_IMPORTS!r}) & set(sys.modules)))\n")
    assert fresh_interpreter_output(code) == "[]\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    """The records are namedtuples and plain classes, so importing the
    package loads neither module, which would nearly double its start-up.
    What the interpreter loaded before the import, site's hooks included,
    is left out."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import zigzagsim.cli\n"
            "print(sorted({'dataclasses', 'inspect'}"
            " & (set(sys.modules) - before)))\n")
    assert fresh_interpreter_output(code) == "[]\n"
