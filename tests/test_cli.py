import dataclasses
import json
import warnings

import numpy as np
import pytest

from semiflow_lab.cli import _SCAN_KINDS, _write_json, main
from semiflow_lab.criteria import SupScanConfig
from semiflow_lab.intertwine import save_bundle
from semiflow_lab.errors import PreconditionError
from semiflow_lab.operators import gallery_semigroups, matrix, save_matrix_csv
from semiflow_lab.spaces import RadialWeight, SpaceSpec


def write_scenario(path, name, flow="dilation", cocycle="coboundary:z",
                   space="hardy:2", extra="", scenario_keys="seed = 7"):
    path.write_text(f"""[scenario]
name = {name}
{scenario_keys}

[flow]
gallery = {flow}

[cocycle]
gallery = {cocycle}

[space]
spec = {space}
{extra}
""")
    return path


@pytest.fixture
def scenario(tmp_path):
    return write_scenario(tmp_path / "ok.ini", "ok-case")


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(autouse=True)
def strict_json_files(tmp_path):
    """Every JSON file a test writes parses without NaN or Infinity."""
    yield
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=reject_constant)


def read_without_timestamp(path):
    return [line for line in path.read_text().splitlines()
            if "generated_at" not in line]


def test_flow_verify_pass(scenario, tmp_path):
    assert main(["flow-verify", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "ok-case.flow.json").read_text())
    assert payload["report"]["passed"] is True


def test_flow_verify_analytic_failure(tmp_path):
    bad = write_scenario(tmp_path / "bad.ini", "bad-case", flow="broken-escape")
    assert main(["flow-verify", "--scenario", str(bad),
                 "--out", str(tmp_path / "out")]) == 1


def test_flow_verify_unknown_gallery_is_config_error(tmp_path):
    bad = write_scenario(tmp_path / "nope.ini", "nope", flow="warp-core")
    assert main(["flow-verify", "--scenario", str(bad),
                 "--out", str(tmp_path / "out")]) == 2


def test_missing_scenario_file_is_config_error(tmp_path):
    assert main(["flow-verify", "--scenario", str(tmp_path / "absent.ini"),
                 "--out", str(tmp_path / "out")]) == 2


def test_verdict_pass_and_reports(scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["verdict", "--scenario", str(scenario), "--out", str(out)]) == 0
    payload = json.loads((out / "ok-case.criterion.json").read_text())
    assert payload["verdict"] == "BOUNDED"
    assert len(payload["criterion"]) == len(payload["t_values"])
    assert (out / "ok-case.criterion.csv").exists()


def test_verdict_rejects_p1(tmp_path):
    p1 = write_scenario(tmp_path / "p1.ini", "p1-case", space="hardy:1")
    assert main(["verdict", "--scenario", str(p1), "--out", str(tmp_path / "out")]) == 2


def test_verdict_blowup_is_analytic_failure(tmp_path):
    blow = write_scenario(tmp_path / "blow.ini", "blow-case", flow="identity",
                          cocycle="poisson-blowup")
    assert main(["verdict", "--scenario", str(blow), "--out", str(tmp_path / "out")]) == 1
    payload = json.loads((tmp_path / "out" / "blow-case.criterion.json").read_text())
    assert payload["verdict"] == "UNBOUNDED-TREND"


def test_decay_pass(scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["decay", "--scenario", str(scenario), "--out", str(out)]) == 0
    rows = (out / "ok-case.decay.csv").read_text().splitlines()
    assert rows[0].startswith("function,")
    assert len(rows) == 11  # header + ten family members


def test_decay_covers_p1(tmp_path):
    p1 = write_scenario(tmp_path / "p1d.ini", "p1-decay", space="hardy:1")
    assert main(["decay", "--scenario", str(p1), "--out", str(tmp_path / "out")]) == 0


def test_reports_are_deterministic(scenario, tmp_path):
    for sub in ("a", "b"):
        assert main(["verdict", "--scenario", str(scenario), "--seed", "3",
                     "--out", str(tmp_path / sub)]) == 0
    a = read_without_timestamp(tmp_path / "a" / "ok-case.criterion.json")
    b = read_without_timestamp(tmp_path / "b" / "ok-case.criterion.json")
    assert a == b


def test_intertwine_bundle_commands(tmp_path):
    a0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
    sg = gallery_semigroups()[0]
    ts = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    mats = [matrix(sg.at(t, validate=False), a0, 20) for t in ts]
    manifest = save_bundle(tmp_path / "bundle", ts, mats, a0)
    out = tmp_path / "out"
    assert main(["intertwine", "--bundle", str(manifest), "--out", str(out)]) == 0
    payload = json.loads((out / "bundle.intertwine.json").read_text())
    assert payload["report"]["passed"] is True
    symbols = (out / "bundle.symbols.csv").read_text().splitlines()
    assert symbols[0] == "t,z_re,z_im,m_re,m_im,phi_re,phi_im"
    assert len(symbols) > len(ts)


def test_intertwine_corrupted_bundle_fails_located(tmp_path):
    a0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
    sg = gallery_semigroups()[0]
    ts = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    mats = [matrix(sg.at(t, validate=False), a0, 24) for t in ts]
    mats[3] = np.zeros((24, 24), dtype=complex)
    manifest = save_bundle(tmp_path / "bundle", ts, mats, a0)
    out = tmp_path / "out"
    assert main(["intertwine", "--bundle", str(manifest), "--out", str(out)]) == 1
    payload = json.loads((out / "bundle.intertwine.json").read_text())
    assert payload["failed_at"] == pytest.approx(0.3)


def test_intertwine_non_intertwiner_in_a_bundle_fails_located(tmp_path):
    # dilation's diag(e^-tj) with A[1, 0] = 0.5 at t = 0.2: Tz / T1 leaves the
    # disk, and the check reports that instead of evaluating outside it
    a0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
    ts = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    mats = [np.diag(np.exp(-t * np.arange(20))).astype(complex) for t in ts]
    mats[2][1, 0] = 0.5
    out = tmp_path / "out"
    assert main(["intertwine", "--bundle", str(save_bundle(tmp_path / "bundle", ts, mats, a0)),
                 "--out", str(out)]) == 1
    payload = json.loads((out / "bundle.intertwine.json").read_text())
    assert payload["failed_at"] == pytest.approx(0.2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_intertwine_bundle_too_small_for_the_self_map_is_config_error(tmp_path, capsys, dim):
    # dim / 2 recovered coefficients of phi must include its linear term
    a0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
    ts = [0.0, 0.1, 0.2, 0.3]
    mats = [np.diag(np.exp(-t * np.arange(dim))) for t in ts]
    manifest = save_bundle(tmp_path / "bundle", ts, mats, a0)
    assert main(["intertwine", "--bundle", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"dim {dim}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_save_bundle_rejects_matrices_of_another_size(tmp_path):
    a0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
    sg = gallery_semigroups()[0]
    ts = [0.0, 0.1, 0.2, 0.3]
    mats = [matrix(sg.at(t, validate=False), a0, 20) for t in ts]
    mats[2] = matrix(sg.at(0.2, validate=False), a0, 12)
    with pytest.raises(PreconditionError, match="20 x 20"):
        save_bundle(tmp_path / "bundle", ts, mats, a0)
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("edit", ["manifest", "csv"])
def test_intertwine_bundle_of_the_wrong_size_is_config_error(tmp_path, capsys, edit):
    # a manifest dim other than the CSVs' size, or one CSV of another size,
    # is malformed input (exit 2), not an analytic failure (exit 1)
    a0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
    sg = gallery_semigroups()[0]
    ts = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    manifest = save_bundle(tmp_path / "bundle", ts,
                           [matrix(sg.at(t, validate=False), a0, 20) for t in ts], a0)
    if edit == "manifest":
        content = json.loads(manifest.read_text())
        content["dim"] = 7
        manifest.write_text(json.dumps(content))
    else:
        save_matrix_csv(matrix(sg.at(0.4, validate=False), a0, 12),
                        tmp_path / "bundle" / "t_0.4.csv")
    assert main(["intertwine", "--bundle", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "t_0" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_intertwine_malformed_bundle_is_config_error(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"space": "hardy:2"}')
    assert main(["intertwine", "--bundle", str(bad), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_intertwine_bundle_with_non_finite_entries_is_config_error(tmp_path, capsys, value):
    # a NaN or infinite entry is malformed input (exit 2), not an analytic failure (exit 1)
    a0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
    sg = gallery_semigroups()[0]
    ts = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    mats = [matrix(sg.at(t, validate=False), a0, 20) for t in ts]
    manifest = save_bundle(tmp_path / "bundle", ts, mats, a0)
    csv = tmp_path / "bundle" / "t_0.3.csv"
    rows = csv.read_text().splitlines()
    rows[5] = ",".join([value] * 40)
    csv.write_text("\n".join(rows) + "\n")
    assert main(["intertwine", "--bundle", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "t_0.3.csv" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_intertwine_manifest_with_a_non_finite_time_is_config_error(tmp_path, capsys, value):
    # the message names the manifest, not only the time ("no operator at t = nan")
    h2 = SpaceSpec.hardy(2)
    ts = [0.0, 0.1, 0.2, 0.3]
    sg = gallery_semigroups()[0]
    manifest = save_bundle(tmp_path / "bundle", ts,
                           [matrix(sg.at(t, validate=False), h2, 20) for t in ts], h2)
    content = json.loads(manifest.read_text())
    content["t_values"][-1] = value
    content["files"][value] = content["files"]["0.3"]
    manifest.write_text(json.dumps(content))
    assert main(["intertwine", "--bundle", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "Traceback" not in err


def test_decay_with_custom_weight_table(tmp_path):
    table = tmp_path / "weight.csv"
    r = np.linspace(0.0, 1.0, 101)
    np.savetxt(table, np.column_stack([r, np.ones_like(r)]), delimiter=",")
    scen = write_scenario(tmp_path / "custom.ini", "custom-weight",
                          space=f"bergman:2:custom:{table}")
    assert main(["decay", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("content", [None, "r,w\n0,1\n1,1\n", "1,0\n0.5,1\n0,2\n",
                                     "0,1\n0.5,nan\n1,1\n", "0,1\n0.5,inf\n1,1\n"],
                         ids=["missing", "header-row", "decreasing-r", "nan", "inf"])
def test_unreadable_weight_table_is_config_error(tmp_path, capsys, content):
    table = tmp_path / "weight.csv"
    if content is not None:
        table.write_text(content)
    scen = write_scenario(tmp_path / "custom.ini", "custom-weight",
                          space=f"bergman:2:custom:{table}")
    assert main(["decay", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad space spec" in err and str(table) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_format_selection(scenario, tmp_path):
    out = tmp_path / "json-only"
    assert main(["decay", "--scenario", str(scenario), "--out", str(out),
                 "--format", "json"]) == 0
    assert (out / "ok-case.decay.json").exists()
    assert not (out / "ok-case.decay.csv").exists()
    # intertwine writes its report as JSON and its symbols as CSV
    a0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
    sg = gallery_semigroups()[0]
    ts = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    manifest = save_bundle(tmp_path / "bundle", ts,
                           [matrix(sg.at(t, validate=False), a0, 20) for t in ts], a0)
    for fmt, written in (("json", {"bundle.intertwine.json"}), ("csv", {"bundle.symbols.csv"})):
        out = tmp_path / f"intertwine-{fmt}"
        assert main(["intertwine", "--bundle", str(manifest), "--out", str(out),
                     "--format", fmt]) == 0
        assert {path.name for path in out.iterdir()} == written


@pytest.mark.parametrize("value,message", [("abc", "ladder_depth must be an integer"),
                                           ("-3", "ladder_depth must be >= 0"),
                                           ("11", "ladder_depth must be <= 10")])
def test_malformed_scan_value_is_config_error(tmp_path, capsys, value, message):
    scen = write_scenario(tmp_path / "scan.ini", "bad-scan",
                          extra=f"\n[scan]\nladder_depth = {value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verdict", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _assert_unknown_scan_key(tmp_path, capsys, key, value):
    scen = write_scenario(tmp_path / "scan.ini", "bad-scan", extra=f"\n[scan]\n{key} = {value}\n")
    assert main(["verdict", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"[scan] {key} is not a scan key" in err and "ladder_depth" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["ladder_dept", "angular_cap"], ids=["typo", "removed"])
def test_unknown_scan_key_is_config_error(tmp_path, capsys, key):
    _assert_unknown_scan_key(tmp_path, capsys, key, 2)


def test_scan_keys_cover_the_scan_config():
    names = {f.name for f in dataclasses.fields(SupScanConfig)}
    assert set(_SCAN_KINDS) | {"small_radii"} == names


def test_json_writer_maps_non_finite_numbers_to_null(tmp_path):
    path = tmp_path / "strict.json"
    _write_json(path, {"a": [1.0, np.nan, (np.inf, -np.inf)], "b": {"c": np.float64(np.nan)},
                       "d": np.array([[0.5, np.inf]]), "e": np.int64(3), "f": "nan"})
    assert json.loads(path.read_text(), parse_constant=reject_constant) == {
        "a": [1.0, None, [None, None]], "b": {"c": None}, "d": [[0.5, None]], "e": 3, "f": "nan"}


# refine_contraction, bound_threshold and stability_rel are criteria constants,
# not scan keys: any value for them, well-formed or not, is an unknown key
def test_malformed_scan_float_names_the_key(tmp_path, capsys):
    _assert_unknown_scan_key(tmp_path, capsys, "stability_rel", "one percent")


@pytest.mark.parametrize("key,value", [("refine_contraction", "nan"),
                                       ("refine_contraction", "-2"),
                                       ("refine_contraction", "1.5"),
                                       ("bound_threshold", "nan"), ("bound_threshold", "0"),
                                       ("stability_rel", "nan"), ("stability_rel", "-0.01")])
def test_out_of_range_scan_float_is_usage_error(tmp_path, capsys, key, value):
    _assert_unknown_scan_key(tmp_path, capsys, key, value)


@pytest.mark.parametrize("command,keys,extra,message", [
    ("flow-verify", "seed = seven", "", "[scenario] seed must be an integer"),
    ("verdict", "seed = seven", "", "[scenario] seed must be an integer"),
    ("decay", "seed = seven", "", "[scenario] seed must be an integer"),
    ("flow-verify", "seed = 7\ntol = tight", "", "[scenario] tol must be a number"),
    ("decay", "seed = 7\ndecay_tol = loose", "", "[scenario] decay_tol must be a number"),
    ("flow-verify", "seed = 7", "\n[grid]\nt_values = 0 0.1 abc\n",
     "[grid] t_values must be a list of numbers"),
    ("verdict", "seed = 7", "\n[grid]\nt_values = 0 0.1 abc\n",
     "[grid] t_values must be a list of numbers"),
    ("flow-verify", "seed = 7\ntol = nan", "", "[scenario] tol must be a finite number > 0"),
    ("flow-verify", "seed = 7\ntol = inf", "", "[scenario] tol must be a finite number > 0"),
    ("decay", "seed = 7\ndecay_tol = nan", "", "[scenario] decay_tol must be a finite number"),
    ("decay", "seed = 7\ndecay_tol = 0", "", "[scenario] decay_tol must be a finite number"),
    ("flow-verify --tol nan", "seed = 7", "", "--tol must be a finite number > 0"),
    ("decay --tol nan", "seed = 7", "", "--tol must be a finite number > 0"),
    ("verdict", "seed = 7", "\n[grid]\nt_values = 0 0.1 0.2 0.3 0.4 0.5 0.6 nan 0.99\n",
     "time grid must be finite"),
    ("flow-verify", "seed = 7", "\n[grid]\nt_values = 0 0.5 nan 1\n",
     "verification times must be finite"),
], ids=["flow-verify-seed", "verdict-seed", "decay-seed", "flow-verify-tol", "decay-decay_tol",
        "flow-verify-t_values", "verdict-t_values", "flow-verify-tol-nan", "flow-verify-tol-inf",
        "decay-decay_tol-nan", "decay-decay_tol-zero", "flow-verify-flag-nan", "decay-flag-nan",
        "verdict-t_values-nan", "flow-verify-t_values-nan"])
def test_malformed_scenario_value_is_config_error(tmp_path, capsys, command, keys, extra,
                                                  message):
    scen = write_scenario(tmp_path / "bad.ini", "bad-value", extra=extra, scenario_keys=keys)
    assert main(command.split() + ["--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,spec", [("flow", "dilation:2"), ("flow", "rotation:abc"),
                                          ("cocycle", "coboundary:z^x"),
                                          ("cocycle", "coboundary:affine-power:x"),
                                          ("space", "hardy:abc"), ("space", "bergman:2:x"),
                                          ("space", "hardy:inf"), ("space", "hardy:nan"),
                                          ("space", "bergman:inf:0"),
                                          ("space", "bergman:2:nan")])
def test_malformed_spec_is_config_error(tmp_path, capsys, section, spec):
    scen = write_scenario(tmp_path / "bad.ini", "bad-spec", **{section: spec})
    assert main(["decay", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert spec in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("manifest", ['["hardy:2"]', '{"space": "hardy:2", "t_values": 5}'],
                         ids=["list", "scalar-t_values"])
def test_malformed_manifest_is_config_error(tmp_path, capsys, manifest):
    bad = tmp_path / "manifest.json"
    bad.write_text(manifest)
    assert main(["intertwine", "--bundle", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()

