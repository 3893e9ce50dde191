import dataclasses
import json
import math
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from subweibull import DistributionSpec, ExperimentPlan, VectorModel, cli, dist, montecarlo, verify
from subweibull.cli import dumps17, main
from subweibull.dist import CanonicalLaw


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# output plumbing


def test_dumps17_floats():
    text = dumps17({"a": 1.0 / 3.0, "b": [2.0, math.inf], "c": None, "ok": True})
    assert "0.33333333333333331" in text
    assert "Infinity" in text
    assert "null" in text and "true" in text


@dataclasses.dataclass(frozen=True)
class _Holder:
    payload: dict


def test_dumps17_writes_a_dataclass_as_its_asdict():
    from subweibull import orlicz, tau

    plan = ExperimentPlan(VectorModel(DistributionSpec.exponential(), 16, 1.0), 10_000, 5)
    report = montecarlo.run_report(plan)
    assert len(report.tail_rows) > 1
    rows = list(report.tail_rows)
    rows[0] = replace(rows[0], bound=math.inf, C=math.nan)
    report = replace(report, boot_lo=math.nan, prop13_C=math.nan, tail_rows=tuple(rows))
    mixed = {"empty": (), "np": np.float64(0.1), "inf": math.inf, "-inf": -math.inf,
             "nan": math.nan, "true": True, "none": None}
    objs = [
        orlicz.psi_norm_quadrature(DistributionSpec.exponential(), 1.0, 1e-8),
        tau.tau_norm(tau.iid_sum(tau.exp_centered(), 100)),
        report,
        _Holder(mixed),
    ]
    for obj in objs:
        assert dumps17(obj) == dumps17(dataclasses.asdict(obj))
    assert dumps17(mixed) == (
        '{\n  "empty": [],\n  "np": 0.10000000000000001,\n  "inf": Infinity,\n'
        '  "-inf": -Infinity,\n  "nan": NaN,\n  "true": true,\n  "none": null\n}'
    )


def reference_dumps17(obj, indent=0):
    """The element-wise writer: one recursive call per value."""
    if isinstance(obj, float):
        return montecarlo.format_cell(obj) if math.isfinite(obj) else json.dumps(obj)
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {reference_dumps17(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{reference_dumps17(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def test_dumps17_float_tables_have_the_element_wise_bytes():
    from subweibull import tau

    tables = [
        [[0.1, -0.0], [1e300, 5e-324]], ((1.0 / 3.0,),), [[1.0, 2.0, 3.0]] * 3,
        [[1.0, math.nan]], [[math.inf, 1.0]], [(-math.inf, 1.0)], [[np.float64(0.1), 1.0]],
        [[1.0, 2.0], [3.0]], [[1.0], []], [[]], [[1.0, [2.0]], [1.0, 2.0]],
        [[True, 1.0]], [[1, 2.0]], [1.0, 2.0], [[1.0, 2.0], "x"],
    ]
    objs = [tau.tau_norm(tau.iid_sum(tau.exp_centered(), 100)), *tables]
    objs += [{"table": table} for table in tables]
    for obj in objs:
        for indent in (0, 2):
            assert dumps17(obj, indent) == reference_dumps17(obj, indent), obj


def test_norm_quadrature_exp(capsys):
    code, out = run_cli(capsys, "norm", "--family", "exp", "--p", "1", "--method", "quadrature")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 2.0) <= 1e-8
    assert payload["method"] == "quadrature"
    assert payload["bracket"][0] <= payload["value"] <= payload["bracket"][1]


def test_norm_analytic_pnormal(capsys):
    code, out = run_cli(
        capsys, "norm", "--family", "pnormal", "--param", "p=3", "--p", "3",
        "--method", "analytic",
    )
    assert code == 0
    assert abs(json.loads(out)["value"] - (8.0 / 3.0) ** (1.0 / 3.0)) <= 1e-12


def test_norm_deterministic_bytes(capsys):
    args = ("norm", "--family", "exp", "--p", "1", "--method", "quadrature")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_norm_empirical_needs_seed(capsys):
    code, _ = run_cli(
        capsys, "norm", "--family", "exp", "--p", "1", "--method", "empirical"
    )
    assert code == 2


def test_norm_numeric_failure_exit_code(capsys):
    # the unit exponential has no finite order-2 norm: divergence -> exit 3
    code, _ = run_cli(capsys, "norm", "--family", "exp", "--p", "2")
    assert code == 3


def _norm_argv(family, p, *params):
    argv = ["norm", "--family", family, "--p", p]
    for param in params:
        argv += ["--param", param]
    return argv


def _unit_norm_times(scale, k, order, p, guess):
    """scale times the order-p norm of the unit law, by mpmath (see ``mpmath_norm``)."""
    return lambda mpmath_norm: scale * mpmath_norm(CanonicalLaw(k, 1.0, order), p, guess)


@pytest.mark.parametrize(
    "argv, expected",
    [
        # (scale/K)**p, K**-p or the integrand's y**p overflows; the norm is
        # its scale times the unit law's
        (_norm_argv("weibull", "2", "shape=2", "scale=1e200"), lambda _: math.sqrt(2.0) * 1e200),
        (_norm_argv("weibull", "2", "shape=2", "scale=1e-160"),
         lambda _: math.sqrt(2.0) * 1e-160),
        (_norm_argv("weibull", "4", "shape=5", "scale=1e80"),
         _unit_norm_times(1e80, 1.0, 5.0, 4.0, 1.13)),
        (_norm_argv("halfgauss_pow", "4", "p=5", "scale=1e80"),
         _unit_norm_times(1e80, 0.5, 5.0, 4.0, 1.17)),
        # divergent, with (scale/K)**p underflowing to 0
        (_norm_argv("halfgauss_pow", "3", "p=2", "scale=1e-100"), None),
        (_norm_argv("weibull", "2", "shape=1", "scale=1e-200"), None),
        (_norm_argv("weibull", "3", "shape=2", "scale=1e-160"), None),
    ],
    ids=lambda case: " ".join(case) if isinstance(case, list) else f"exit {0 if case else 3}",
)
def test_norm_at_an_extreme_scale_exits_with_the_code_of_its_outcome(
    capsys, mpmath_norm, argv, expected
):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == (3 if expected is None else 0)
    assert "Traceback" not in err
    if expected is None:
        assert err.startswith("numeric error: ")
    else:
        assert json.loads(out)["value"] == pytest.approx(expected(mpmath_norm), rel=1e-12, abs=0)


def test_quadrature_divergence_names_the_ceiling_in_the_law_units(capsys):
    # the search runs on the unit law up to 1e9, which is 1e-91 at scale 1e-100
    code = main(_norm_argv("halfgauss_pow", "3", "p=2", "scale=1e-100"))
    err = capsys.readouterr().err
    assert code == 3
    assert err == "numeric error: exponential moment stays above 2 for every K up to 1e-91\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--family", "exp", "--p", "1", "--method", "empirical", "--samples", "1000",
         "--seed", "1", "--tol", "nan"],
        ["norm", "--family", "exp", "--p", "nan", "--method", "quadrature"],
        ["concentrate", "--family", "exp", "--p", "1", "--n", "16", "--trials", "10000",
         "--seed", "1", "--t-grid", "nan"],
        ["tau", "--cumulant", "exp_centered", "--tol", "nan"],
        ["tau", "--cumulant", "gaussian", "--sigma", "nan"],
        ["norm", "--family", "exp", "--p", "1", "--method", "quadrature", "--tol", "nan"],
        ["bernstein", "--n", "10", "--t", "nan", "--k", "1"],
        ["bernstein", "--n", "10", "--t", "1", "--k", "1", "--c1", "nan"],
        ["tailbound", "--norm", "1", "--p", "1", "--t", "nan"],
        ["tailbound", "--norm", "1", "--p", "nan", "--t", "1"],
        ["conjugate", "--t", "nan"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_nan_input_is_a_config_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("sigma", ["1e155", "1e-200"])
def test_tau_of_a_gaussian_whose_variance_is_not_a_normal_double_is_a_config_error(
    capsys, sigma
):
    # sigma**2 overflows at 1e155 (an OverflowError traceback and exit 1 before)
    # and underflows to 0 at 1e-200 (a norm of 0 before)
    code = main(["tau", "--cumulant", "gaussian", "--sigma", sigma])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("config error: sigma**2 must be a finite normal double")


def test_norm_analytic_without_closed_form_is_config_error(capsys):
    # the closed form of weibull(3, 5) exists only at order 3
    code, out = run_cli(
        capsys, "norm", "--family", "weibull", "--param", "shape=3", "--param", "scale=5",
        "--p", "2", "--method", "analytic",
    )
    assert code == 2
    assert out == ""


def test_tau_exp_centered(capsys):
    code, out = run_cli(capsys, "tau", "--cumulant", "exp_centered")
    assert code == 0
    assert abs(json.loads(out)["value"] - 2.0) <= 1e-5


def test_tau_sum_hundred(capsys):
    code, out = run_cli(capsys, "tau", "--cumulant", "exp_centered_sum", "--n", "100")
    assert code == 0
    assert abs(json.loads(out)["value"] - 11.0) <= 1e-4


def test_conjugate_linear_branch(capsys):
    code, out = run_cli(capsys, "conjugate", "--f", "phi_inf", "--t", "3")
    assert code == 0
    assert abs(json.loads(out)["value"] - 2.5) <= 1e-9


# Bytes and exit codes of `conjugate --search-bound 16` as the scalar ternary
# search produced them; the lockstep search must keep them.
CONJUGATE_BYTES = {
    ("phi_inf", "0"): (0, "0"),
    ("phi_inf", "0.5"): (0, "0.125"),
    ("phi_inf", "-3"): (0, "2.499999999948872"),
    ("phi_inf", "7.5"): (0, "6.9999999998338351"),
    ("phi1", "0"): (0, "0"),
    ("phi1", "0.5"): (0, "0.125"),
    ("phi1", "-3"): (3, None),
    ("phi1", "7.5"): (3, None),
    ("quadratic", "0"): (0, "0"),
    ("quadratic", "0.5"): (0, "0.125"),
    ("quadratic", "-3"): (0, "4.5000000000000009"),
    ("quadratic", "7.5"): (0, "28.125000000000004"),
    ("quadratic", "40"): (3, None),
}


@pytest.mark.parametrize("f, t", list(CONJUGATE_BYTES))
def test_conjugate_output_bytes(capsys, f, t):
    argv = ["conjugate", "--f", f, "--t", t, "--search-bound", "16"]
    code, value = CONJUGATE_BYTES[(f, t)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if value is None:
        assert out == ""
        assert err == f"numeric error: objective still increasing at search_bound=16 for t={t}\n"
        assert main(argv + ["--format", "csv"]) == code
        assert capsys.readouterr().out == ""
        return
    assert out == (
        f'{{\n  "f": "{f}",\n  "t": {t},\n  "search_bound": 16,\n  "value": {value}\n}}\n'
    )
    assert main(argv + ["--format", "csv"]) == code
    assert capsys.readouterr().out == f"f,t,search_bound,value\n{f},{t},16,{value}\n"


def test_tailbound(capsys):
    code, out = run_cli(
        capsys, "tailbound", "--norm", "2", "--p", "1", "--t", str(2.0 * math.log(4.0))
    )
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.5) <= 1e-12


def test_bernstein(capsys):
    code, out = run_cli(
        capsys, "bernstein", "--n", "100", "--t", "0.5", "--k", "1", "--c1", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 2.0 * math.exp(-3.125)) <= 1e-12
    assert payload["min_form"] >= payload["value"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "exp", "p": 1.0, "method": "analytic"}))
    code, out = run_cli(capsys, "norm", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["method"] == "analytic"
    # flag wins over the file
    code, out = run_cli(capsys, "norm", "--config", str(cfg), "--method", "quadrature")
    assert code == 0
    assert json.loads(out)["method"] == "quadrature"


@pytest.mark.parametrize(
    "argv, key",
    [
        (
            ("concentrate", "--family", "exp", "--p", "1", "--n", "16", "--trials", "1000",
             "--seed", "1"),
            {"constant_grid": "1,2,4,8,16,32"},
        ),
        (("norm", "--family", "exp", "--p", "1"), {"metod": "analytic"}),
    ],
)
def test_config_unknown_key_exits_2(tmp_path, capsys, argv, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(key))
    code, out = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""


def _budget_check(monkeypatch):
    """Stub verify's suite with one passing check that reports its budget."""
    monkeypatch.setattr(
        verify, "run_all",
        lambda trials, seed: [verify.CheckResult("stub", True, f"trials={trials} seed={seed}")],
    )


NORM_EXP = ("norm", "--family", "exp", "--p", "1", "--method", "analytic")
CONCENTRATE_EXP = (
    "concentrate", "--family", "exp", "--p", "1", "--n", "16", "--trials", "10000",
    "--seed", "3",
)


@pytest.mark.parametrize(
    "argv, key, flags",
    [
        (NORM_EXP, {"format": "csv"}, ("--format", "csv")),
        (NORM_EXP, {"output": "out.json"}, ("--output", "out.json")),
        (CONCENTRATE_EXP, {"tails_output": "tails.csv"}, ("--tails-output", "tails.csv")),
        (("verify",), {"full": True}, ("--full",)),
        (("tailbound", "--norm", "2", "--p", "1", "--t", "0.1"), {"clamp": True}, ("--clamp",)),
        (CONCENTRATE_EXP, {"t_grid": [0, 1, 2.5, 8]}, ("--t-grid", "0,1,2.5,8")),
        (
            ("norm", "--family", "pnormal", "--p", "3", "--method", "analytic"),
            {"param": {"p": 3}},
            ("--param", "p=3"),
        ),
    ],
    ids=["format", "output", "tails_output", "full", "clamp", "t_grid", "param"],
)
def test_config_key_acts_like_its_flag(tmp_path, monkeypatch, capsys, argv, key, flags):
    _budget_check(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(key))

    def run(name, *extra):
        directory = tmp_path / name
        directory.mkdir()
        monkeypatch.chdir(directory)
        code = main([*argv, *extra])
        return code, capsys.readouterr().out, {f.name: f.read_bytes() for f in directory.iterdir()}

    by_config = run("config", "--config", str(cfg))
    assert by_config == run("flag", *flags)
    assert by_config != run("default")


def test_param_flags_override_config_entries_by_name(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"param": {"shape": 2, "scale": 5}}))
    weibull = ("norm", "--family", "weibull", "--p", "3", "--method", "analytic")
    by_config = run_cli(capsys, *weibull, "--config", str(cfg), "--param", "shape=3")
    assert by_config == run_cli(capsys, *weibull, "--param", "shape=3", "--param", "scale=5")


def exit_code(argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, key",
    [
        (NORM_EXP, {"format": "xml"}),
        (("tau", "--cumulant", "exp_centered_sum"), {"n": "many"}),
        (("tau", "--cumulant", "exp_centered_sum"), {"n": 16.0}),
        (NORM_EXP, {"config": "x.json"}),
        (("verify",), {"format": "csv"}),
        (CONCENTRATE_EXP, {"t_grid": "1,x"}),
    ],
    ids=["format-choice", "int-type", "int-given-float", "config", "verify-format", "t_grid"],
)
def test_config_value_rejected_like_its_flag_exits_2(tmp_path, monkeypatch, capsys, argv, key):
    _budget_check(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(key))
    assert exit_code([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


def test_verify_has_no_format_flag(monkeypatch, capsys):
    _budget_check(monkeypatch)
    assert exit_code(["verify", "--format", "csv"]) == 2


def test_concentrate_tails_output_in_both_formats(tmp_path, capsys):
    for fmt in ("json", "csv"):
        code = main([*CONCENTRATE_EXP, "--format", fmt, "--tails-output", str(tmp_path / fmt)])
        assert code == 0
    tails = (tmp_path / "json").read_text()
    assert tails == (tmp_path / "csv").read_text()
    assert tails.splitlines()[0] == "family,p,n,t,freq,se,bound,C"


def test_output_file_atomic(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run_cli(
        capsys, "norm", "--family", "exp", "--p", "1", "--method", "analytic",
        "--output", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["value"] == 2.0
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


ANALYTIC_NORM = ("norm", "--family", "exp", "--p", "1", "--method", "analytic")


@pytest.fixture
def umask_022():
    saved = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(saved)


def test_new_output_file_gets_the_umask_mode(tmp_path, capsys, umask_022):
    target = tmp_path / "tb.json"
    code, _ = run_cli(capsys, *ANALYTIC_NORM, "--output", str(target))
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


def test_overwritten_output_file_keeps_its_mode(tmp_path, capsys, umask_022):
    target = tmp_path / "tb.json"
    target.write_text("old")
    target.chmod(0o640)
    code, _ = run_cli(capsys, *ANALYTIC_NORM, "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())["value"] == 2.0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_invalid_run_leaves_no_output_file(tmp_path, capsys):
    target = tmp_path / "never.json"
    code, _ = run_cli(
        capsys, "norm", "--family", "exp", "--p", "2", "--output", str(target)
    )
    assert code == 3
    assert not target.exists()


def test_unwritable_output_is_config_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.json"
    code, _ = run_cli(
        capsys, "norm", "--family", "exp", "--p", "1", "--method", "analytic",
        "--output", str(target),
    )
    assert code == 2


def test_concentrate_csv(tmp_path, capsys):
    report_path = tmp_path / "report.csv"
    tails_path = tmp_path / "tails.csv"
    code, _ = run_cli(
        capsys, "concentrate", "--family", "pnormal", "--param", "p=2", "--p", "2",
        "--n", "16", "--trials", "10000", "--seed", "7", "--format", "csv",
        "--output", str(report_path), "--tails-output", str(tails_path),
    )
    assert code == 0
    lines = report_path.read_text().splitlines()
    assert lines[0].startswith("family,p,n,trials,seed,center,")
    assert lines[1].startswith("pnormal,2,16,10000,7,")
    assert tails_path.read_text().splitlines()[0] == "family,p,n,t,freq,se,bound,C"


def _canned_checks(monkeypatch, *passed):
    results = [verify.CheckResult(f"stub.{i}", ok, "canned") for i, ok in enumerate(passed)]
    monkeypatch.setattr(verify, "run_all", lambda trials, seed: results)


def test_verify_all_pass_exits_0(monkeypatch, capsys):
    _canned_checks(monkeypatch, True, True, True)
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "3/3 checks passed"


def test_verify_failure_exits_1(monkeypatch, capsys):
    _canned_checks(monkeypatch, True, False, True)
    code, out = run_cli(capsys, "verify")
    assert code == 1
    assert [line.split()[:2] for line in out.splitlines() if line.startswith("FAIL")] == [
        ["FAIL", "stub.1"]
    ]
    assert out.splitlines()[-1] == "2/3 checks passed"


def test_run_all_calls_every_check_once(monkeypatch):
    names = [name for name in vars(verify) if name.startswith("check_")]
    calls = {}

    def stub(name):
        def check(**budget):
            calls.setdefault(name, []).append(budget)
            return verify.CheckResult(name, True, "")

        return check

    for name in names:
        monkeypatch.setattr(verify, name, stub(name))
    results = verify.run_all(trials=1_000, seed=5)
    assert [r.name for r in results] == names
    assert all(len(calls[name]) == 1 for name in names)
    assert calls["check_growth_rates"] == [{"trials": 1_000, "seed": 5}]
    assert calls["check_bound_domination"] == [{"seed": 5}]


@pytest.mark.parametrize("inflated", [False, True])
def test_bound_domination_fails_on_inflated_exp_frequencies(monkeypatch, inflated):
    def canned_report(plan, bootstrap):
        # rows whose own bound is generous, as a constant fitted to them would be
        spec = plan.model.coordinate_spec
        freq = 0.9 if inflated and spec.family == "exp" else 0.0
        rows = tuple(
            montecarlo.TailRow(t=t, freq=freq if t > 0.0 else 1.0, se=1e-3, bound=2.0, C=1.055)
            for t in plan.effective_t_grid()
        )
        nan = math.nan
        return montecarlo.ConcentrationReport(
            spec.family, plan.model.p, plan.model.n, plan.trials, plan.seed,
            nan, nan, nan, nan, nan, nan, nan, nan, rows,
        )

    monkeypatch.setattr(montecarlo, "run_report", canned_report)
    result = verify.check_bound_domination()
    assert result.passed is not inflated
    assert ("exp n=100: 12 rows, 0 violations" in result.detail) is not inflated


def test_a_bound_at_freq_minus_three_se_dominates_in_the_fit_and_in_verify(monkeypatch):
    # on bound = freq - 3 se the converse form freq > bound + 3 se rounds to
    # a violation; the Bernstein fit and tail_domination read one predicate
    freq, se = 0.0016, 0.0001999599959991998
    on = freq - 3.0 * se
    assert freq > on + 3.0 * se
    spec = DistributionSpec.exponential()
    plan = ExperimentPlan(VectorModel(spec, 16, 1.0), montecarlo.MIN_TRIALS_TAIL, 1)
    t_grid = [float(t) for t in range(montecarlo.TAIL_POINTS)]
    monkeypatch.setattr(montecarlo, "tail_exceedance",
                        lambda plan, devs: [(t, freq, se) for t in t_grid])

    def report_at(bound):
        bounds = montecarlo.ModelBounds(
            lambda C: math.inf, None, lambda t, C: bound, lambda t, target: 0.0
        )
        monkeypatch.setattr(montecarlo, "model_bounds", lambda model: bounds)
        return montecarlo._report(plan, np.ones(100), (math.nan, math.nan))

    report = report_at(on)
    assert [row.bound for row in report.tail_rows] == [on] * montecarlo.TAIL_POINTS
    assert verify.tail_domination([(spec, report)]).passed
    below = math.nextafter(on, 0.0)
    with pytest.raises(montecarlo.NoFeasibleConstantError):
        report_at(below)
    rows = tuple(replace(row, bound=below) for row in report.tail_rows)
    result = verify.tail_domination([(spec, replace(report, tail_rows=rows))])
    assert not result.passed
    assert "12 rows, 12 violations" in result.detail


def test_verify_budget_is_the_module_constants(monkeypatch, tmp_path):
    seen = {}

    def run_all(trials, seed):
        seen.update(trials=trials, seed=seed)
        return [verify.CheckResult("stub", True, "")]

    monkeypatch.setattr(verify, "run_all", run_all)
    out = str(tmp_path / "verify.txt")
    for argv, trials in ((["verify"], verify.TRIALS), (["verify", "--full"], verify.FULL_TRIALS)):
        assert main([*argv, "--output", out]) == 0
        assert seen == {"trials": trials, "seed": verify.SEED}
    assert (verify.TRIALS, verify.FULL_TRIALS, verify.SEED) == (20_000, 100_000, 777)


def test_bound_domination_fails_on_one_inflated_exp_row(monkeypatch):
    real_report = montecarlo.run_report

    def inflated_report(plan, bootstrap):
        report = real_report(plan, bootstrap=bootstrap)
        if report.family != "exp":
            return report
        rows = list(report.tail_rows)
        rows[5] = replace(rows[5], freq=rows[5].freq + 0.02)
        return replace(report, tail_rows=tuple(rows))

    monkeypatch.setattr(montecarlo, "run_report", inflated_report)
    result = verify.check_bound_domination()
    assert not result.passed
    assert "exp n=100: 12 rows, 1 violations" in result.detail


@pytest.mark.parametrize(
    "spec",
    [DistributionSpec.weibull(0.7, 1.5), DistributionSpec.pnormal(3.0),
     DistributionSpec.halfgauss_pow(1.5, 2.0)],
    ids=lambda spec: spec.family,
)
def test_density_normalization_integrand_is_finite_where_x_underflows(spec):
    # at u = 1e-250, x = scale * u**e underflows to 0 for weibull(0.7, 1.5),
    # where dist.density returns its pole; in logs the integrand stays the
    # base density of u, and elsewhere it is density(x) dx/du
    law = dist.canonical(spec)
    theta, e = law.scale, law.e
    integrand = verify._density_in_base_variable(spec)
    base = math.exp(law.log_base_pdf(1e-250)) / (2.0 if spec.symmetric else 1.0)
    assert integrand(1e-250) == pytest.approx(base, rel=1e-12)
    if spec.order < 1.0:
        assert theta * 1e-250**e == 0.0 and dist.density(spec, 0.0) == math.inf
    for u in (1e-3, 0.5, 2.0, 5.0):
        product = dist.density(spec, theta * u**e) * theta * e * u ** (e - 1.0)
        assert integrand(u) == pytest.approx(product, rel=1e-13)


def test_exact_exp_tail_is_the_gamma_law_tail():
    import mpmath as mp

    model = VectorModel(DistributionSpec.exponential(), 100, 1.0)
    plan = ExperimentPlan(model, 10_000, 778)
    n = model.n
    # the check's grid, then t = n and beyond, where n - t leaves the support
    grid = (*plan.effective_t_grid(), float(n), 150.0, 1e4)
    rows = tuple(montecarlo.TailRow(t=t, freq=0.0, se=0.0, bound=2.0, C=1.0) for t in grid)
    nan = math.nan
    report = montecarlo.ConcentrationReport(
        "exp", 1.0, n, plan.trials, plan.seed, nan, nan, nan, nan, nan, nan, nan, nan, rows,
    )
    exact = verify._exact_exp_tail(report)
    with mp.workdps(40):
        upper = [float(mp.gammainc(n, n + t, mp.inf, regularized=True)) for t in grid]
        lower = [float(mp.gammainc(n, 0, n - t, regularized=True)) if t < n else 0.0 for t in grid]
    assert [row.bound for row in exact.tail_rows] == pytest.approx(
        [q + p for q, p in zip(upper, lower)], rel=1e-10
    )
    assert [row.bound for row in exact.tail_rows[-3:]] == pytest.approx(upper[-3:], rel=1e-10)


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--nonsense"])
    assert exc.value.code == 2


def test_main_calls_carry_no_state_between_them(tmp_path, capsys):
    # main keeps one parser per process; each call must parse as a fresh parser would
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"p": 1.5, "param": ["shape=1.5", "scale=1"]}))
    analytic = ["norm", "--method", "analytic", "--family"]
    calls = [
        analytic + ["weibull", "--param", "shape=2", "--param", "scale=3", "--p", "2"],
        analytic + ["pnormal", "--param", "p=3", "--p", "3"],
        analytic + ["weibull", "--config", str(config)],
        ["norm", "--nonsense"],
        analytic + ["weibull", "--param", "shape=0.5", "--param", "scale=2", "--p", "0.5"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(argv))
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 2, 0]
    values = [json.loads(out)["value"] for code, out, _ in alone if code == 0]
    assert values == [3.0 * 2.0 ** (1.0 / 2.0), (8.0 / 3.0) ** (1.0 / 3.0), 2.0 ** (1.0 / 1.5), 8.0]


def test_conjugate_of_an_infinite_t_writes_no_stderr(fresh_python):
    proc = fresh_python(["-m", "subweibull", "conjugate", "--t", "inf"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == math.inf
    assert proc.stderr == ""


def test_module_entry_point_smoke(fresh_python):
    proc = fresh_python(["-m", "subweibull", "conjugate", "--f", "phi_inf", "--t", "0.5"])
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["value"] - 0.125) <= 1e-9


def _scipy_imports(importtime_log: str) -> list[str]:
    """The scipy modules named in a ``-X importtime`` log."""
    names = (line.rsplit("|", 1)[-1].strip() for line in importtime_log.splitlines()
             if line.startswith("import time:"))
    return [name for name in names if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize(
    "argv",
    [
        ["-c", "import subweibull, subweibull.cli"],
        ["-m", "subweibull", "tailbound", "--norm", "2", "--p", "1", "--t", "3"],
        ["-m", "subweibull", "bernstein", "--n", "100", "--t", "0.5", "--k", "2"],
        ["-m", "subweibull", "conjugate", "--f", "phi_inf", "--t", "0.5"],
        ["-m", "subweibull", "tau", "--cumulant", "exp_centered"],
        ["-m", "subweibull", "norm", "--family", "exp", "--p", "1", "--method", "analytic"],
        ["-m", "subweibull", "norm", "--family", "exp", "--p", "1", "--method", "empirical",
         "--samples", "1000", "--seed", "1"],
        ["-m", "subweibull", "concentrate", "--family", "exp", "--p", "1", "--n", "16",
         "--trials", "1000", "--seed", "1"],
    ],
    ids=["import", "tailbound", "bernstein", "conjugate", "tau", "norm-analytic",
         "norm-empirical", "concentrate"],
)
def test_commands_without_quadrature_do_not_load_scipy(fresh_python, argv):
    # scipy is imported where it is used, and these commands never use it
    proc = fresh_python(["-X", "importtime", *argv])
    assert proc.returncode == 0, proc.stderr
    assert _scipy_imports(proc.stderr) == []


@pytest.mark.parametrize(
    "argv, key",
    [
        (["norm", "--family", "exp", "--p", "0.5", "--method", "quadrature"], "value"),
        # weibull(1.5, 1) at p = 1 is off the closed-form table: its
        # coordinate norm, and so the prop13 bound, comes from quadrature
        (["concentrate", "--family", "weibull", "--param", "shape=1.5", "--param", "scale=1",
          "--p", "1", "--n", "16", "--trials", "1000", "--seed", "1"], "prop13_bound"),
    ],
    ids=["norm-quadrature", "concentrate-off-table"],
)
def test_quadrature_commands_load_no_scipy(fresh_python, argv, key):
    # the quadrature rule is the package's own: integrating loads no scipy
    proc = fresh_python(["-X", "importtime", "-m", "subweibull", *argv])
    assert proc.returncode == 0, proc.stderr
    assert _scipy_imports(proc.stderr) == []
    assert math.isfinite(json.loads(proc.stdout)[key])


def test_quadrature_checks_do_not_load_scipy(fresh_python):
    code = (
        "from subweibull import verify\n"
        "checks = (verify.check_density_normalization, verify.check_mgf_quadrature,\n"
        "          verify.check_closed_form_table, verify.check_power_identity)\n"
        "assert all(check().passed for check in checks)\n"
    )
    proc = fresh_python(["-X", "importtime", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert _scipy_imports(proc.stderr) == []


def test_verify_loads_no_scipy(fresh_python):
    # the KS checks and the exact exponential tail use subweibull.specfun:
    # the whole verify battery runs without scipy
    proc = fresh_python(["-X", "importtime", "-m", "subweibull", "verify", "--seed", "20240817"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("29/29 checks passed")
    assert _scipy_imports(proc.stderr) == []
