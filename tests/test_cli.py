"""CLI contract: commands, exit codes, report schema, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from quivercover import CapExceeded, list_indecomposables, tautilt, verify_orbit_bijection
from quivercover.carrier import ISO_SEED
from quivercover.cli import main
from quivercover.modules import decompose, direct_sum, projective_at
from quivercover.report import CLAIM_IDS, VerificationReport
from tests.conftest import GOLDENS, golden_doc, sixcycle_variant

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")


def golden(name):
    return os.path.join(GOLDEN, name + ".json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["orbit", "--action", os.path.join(GOLDEN, "sixcycle_action.json")],
        ["pushdown", "--module", "mod.json"],
        ["indecs", "--cover"],
        ["check", "--claim", "Corres"],
        ["suite"],
        ["enumerate-tilting", "--cover"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_takes_a_window(capsys, argv):
    command, *rest = argv
    assert main([command, "--input", golden("n32"), *rest, "--window", "4"]) == 2
    assert "unrecognized arguments: --window 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--cap", "0"],
        ["orbit", "--action", os.path.join(GOLDEN, "sixcycle_action.json"), "--cap", "0"],
        ["pushdown", "--module", "mod.json", "--cap", "0"],
        ["enumerate-tilting", "--cap", "0"],
        ["suite", "--all"],
    ],
    ids=lambda argv: " ".join([argv[0], argv[-1] if argv[-1] == "--all" else "--cap"]),
)
def test_flags_a_command_would_ignore_are_refused(capsys, argv):
    command, *rest = argv
    assert main([command, "--input", golden("n32"), *rest]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--input", golden("n32"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["vertices"] == 3


def test_validate_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": {"kind": "prime", "p": 32003},
                "group": {"kind": "free-abelian", "rank": 1},
                "vertices": ["1", "2", "3"],
                "arrows": [
                    {"id": "a", "src": "1", "tgt": "2", "weight": [1]},
                    {"id": "b", "src": "2", "tgt": "3", "weight": [1]},
                    {"id": "c", "src": "1", "tgt": "2", "weight": [0]},
                    {"id": "d", "src": "2", "tgt": "3", "weight": [0]},
                ],
                "relations": [
                    [
                        {"coeff": "1", "path": ["a", "b"]},
                        {"coeff": "-1", "path": ["c", "d"]},
                    ]
                ],
                "nilbound": 2,
            }
        )
    )
    code, _, err = run(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert "InhomogeneousRelation" in err


EMPTY_PRESENTATION = {
    "field": {"kind": "prime", "p": 32003},
    "group": {"kind": "free-abelian", "rank": 1},
    "vertices": [],
    "arrows": [],
    "relations": [],
    "nilbound": 0,
}


@pytest.mark.parametrize("argv", [["validate"], ["suite", "--n", "1"]], ids=["validate", "suite"])
def test_a_presentation_without_vertices_is_a_schema_error(argv, tmp_path, capsys):
    # its empty subcategory would fail the generator-cogenerator test and
    # read as a SelfinjCriteria FAIL (exit 1)
    path = _write(tmp_path, "empty.json", EMPTY_PRESENTATION)
    code, out, err = run(capsys, argv[0], "--input", path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == "SchemaError: a presentation needs at least one vertex\n"


def test_usage_error(capsys):
    assert main(["check", "--input", golden("n32")]) == 2  # missing --claim


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _bad_weight(weight):
    def argv(tmp_path):
        doc = golden_doc("n32")
        doc["arrows"][0]["weight"] = weight
        return ["validate", "--input", _write(tmp_path, "input.json", doc)]
    return argv


def _bad_presentation(**changes):
    def argv(tmp_path):
        doc = {**golden_doc("n32"), **changes}
        return ["validate", "--input", _write(tmp_path, "input.json", doc)]
    return argv


def _bad_module(module):
    def argv(tmp_path):
        return ["pushdown", "--input", golden("n32"), "--module", _write(tmp_path, "module.json", module)]
    return argv


def _bad_action(**changes):
    def argv(tmp_path):
        action = {**golden_doc("sixcycle_action"), **changes}
        return ["orbit", "--input", golden("sixcycle"), "--action", _write(tmp_path, "action.json", action)]
    return argv


def _action_off_the_ideal(tmp_path):
    # the six-cycle without its relation c1*c2: the image of c4*c5 is not in the ideal
    doc = sixcycle_variant(redundant=False)
    return ["orbit", "--input", _write(tmp_path, "input.json", doc), "--action", golden("sixcycle_action")]


def _not_json(command, option):
    def argv(tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        return [command, "--input", golden("sixcycle" if command == "orbit" else "n32"), option, str(path)]
    return argv


def _directory_input(tmp_path):
    return ["validate", "--input", str(tmp_path)]


@pytest.mark.parametrize(
    "argv,error,message",
    [
        (_bad_weight("x"), "SchemaError", None),
        (_bad_weight(1.5), "SchemaError", None),
        (_bad_weight(True), "SchemaError", None),
        (_bad_presentation(arrows=5), "SchemaError", None),
        (_bad_presentation(relations=[[{"coeff": "1", "path": [["a1"]]}]]), "SchemaError", None),
        (_bad_presentation(nilbound=True), "SchemaError", None),
        (_bad_module({"dims": [1]}), "SchemaError", None),
        (_bad_module({"dims": {"1@0": 1}, "arrowmaps": []}), "SchemaError", None),
        (_not_json("pushdown", "--module"), "SchemaError", None),
        (_bad_action(m="x"), "SchemaError", None),
        (_bad_action(vertex_map=["u1", "u2"]), "SchemaError", None),
        (_bad_action(vertex_map={**golden_doc("sixcycle_action")["vertex_map"], "u1": 4}), "SchemaError", None),
        (_not_json("orbit", "--action"), "SchemaError", None),
        (_action_off_the_ideal, "SchemaError", None),
        (_directory_input, "IsADirectoryError", None),
        (_bad_presentation(field={"kind": "prime", "p": True}), "SchemaError", "prime field needs an integer 'p'"),
        (_bad_presentation(group={"kind": "free-abelian", "rank": True}), "SchemaError",
         "free-abelian group needs an integer 'rank'"),
        (_bad_presentation(group={"kind": "cyclic", "m": True}), "SchemaError", "cyclic group needs an integer 'm'"),
    ],
    ids=[
        "weight-string", "weight-float", "weight-bool", "arrows-int", "path-of-lists", "nilbound-bool",
        "dims-list", "arrowmaps-list", "module-not-json", "action-m-string", "vertex-map-list",
        "vertex-map-int-value", "action-not-json", "action-off-the-ideal", "input-directory",
        "field-p-bool", "group-rank-bool", "group-m-bool",
    ],
)
def test_malformed_input_files_are_schema_errors(argv, error, message, tmp_path, capsys):
    # exit 1 means a claim failed, so a malformed file must exit 2, never 1;
    # a path that names no readable file is an input error too
    code, _, err = run(capsys, *argv(tmp_path))
    assert code == 2
    assert err.startswith(f"{error}:")
    assert message is None or err == f"{error}: {message}\n"


def test_check_exit_zero_and_report_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--input",
        golden("n32"),
        "--claim",
        "Main1",
        "--n",
        "1",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_determinism(capsys):
    argv = [
        "check",
        "--input",
        golden("loop2"),
        "--claim",
        "Corres",
        "--n",
        "1",
        "--seed",
        "7",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical


def test_check_not_applicable_exit_code(tmp_path, capsys):
    # Kronecker-type input: BonGab hypothesis unmet -> exit 3
    doc = {
        "field": {"kind": "prime", "p": 32003},
        "group": {"kind": "free-abelian", "rank": 0},
        "vertices": ["1", "2"],
        "arrows": [
            {"id": "a", "src": "1", "tgt": "2", "weight": []},
            {"id": "b", "src": "1", "tgt": "2", "weight": []},
        ],
        "relations": [],
        "nilbound": 1,
    }
    path = tmp_path / "kron.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "check", "--input", str(path), "--claim", "BonGab", "--n", "1"
    )
    assert code == 3
    assert json.loads(out)["pass"] == "not-applicable"


def test_indecs_listing(capsys):
    code, out, _ = run(capsys, "indecs", "--input", golden("n32"))
    assert code == 0
    listing = json.loads(out)
    assert len(listing) == 6
    for entry in listing:
        assert set(entry) >= {"id", "dims", "arrowmaps", "decomposition"}


def test_orbit_command(capsys):
    code, out, _ = run(
        capsys,
        "orbit",
        "--input",
        golden("sixcycle"),
        "--action",
        os.path.join(GOLDEN, "sixcycle_action.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 3
    assert len(doc["arrows"]) == 3
    assert doc["group"] == {"kind": "cyclic", "m": 2}
    # golden/n32_z2.json is this quotient, N(3,2) graded by Z/2
    with open(golden("n32_z2"), encoding="utf-8") as fh:
        assert doc == json.load(fh)


@pytest.mark.parametrize("m,code", [(2, 2), (3, 0)])
def test_orbit_checks_the_order_of_the_action(tmp_path, capsys, m, code):
    # u_i -> u_{i+2}, c_i -> c_{i+2} has order 3 on the six-cycle
    step = {f"{k}{i}": f"{k}{(i + 1) % 6 + 1}" for k in "uc" for i in range(1, 7)}
    action = {
        "m": m,
        "vertex_map": {k: v for k, v in step.items() if k[0] == "u"},
        "arrow_map": {k: v for k, v in step.items() if k[0] == "c"},
    }
    path = tmp_path / "action.json"
    path.write_text(json.dumps(action))
    got, out, err = run(capsys, "orbit", "--input", golden("sixcycle"), "--action", str(path))
    assert got == code
    if code:
        assert "vertex action has order > 2" in err
    else:
        doc = json.loads(out)
        assert doc["group"] == {"kind": "cyclic", "m": 3}
        assert len(doc["vertices"]) == 2


def _pushdown(capsys, tmp_path, module):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(module))
    return run(capsys, "pushdown", "--input", golden("n32"), "--module", str(path))


def test_pushdown_command(tmp_path, capsys):
    # the covering simple at shift 2 pushes down to the base simple
    code, out, _ = _pushdown(capsys, tmp_path, {"dims": {"2@2": 1}, "arrowmaps": {}})
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"2": 1}


def test_pushdown_of_a_far_twist_is_that_of_the_centred_twist(tmp_path, capsys):
    # no window bounds a module literal: any shift of the group is an object
    far = {"dims": {"1@100": 1, "2@101": 1}, "arrowmaps": {"a1@100": [[1]]}}
    centred = {"dims": {"1@0": 1, "2@1": 1}, "arrowmaps": {"a1@0": [[1]]}}
    code_far, out_far, _ = _pushdown(capsys, tmp_path, far)
    code_centred, out_centred, _ = _pushdown(capsys, tmp_path, centred)
    assert code_far == code_centred == 0
    assert out_far == out_centred
    assert json.loads(out_far) == {"dims": {"1": 1, "2": 1}, "arrowmaps": {"a1": [[1]]}}


@pytest.mark.parametrize(
    "module",
    [
        {"dims": {"1@1,2": 1}},
        {"dims": {"1@x": 1}},
        {"dims": {"9@0": 1}},
        {"dims": {"1@0": 1, "2@1": 1}, "arrowmaps": {"zz@0": [[1]]}},
        # a1@0: 1@0 -> 2@1 must be 1 x 0 and a2@0: 2@0 -> 3@1 must be 0 x 0
        {"dims": {"1@0": 1}, "arrowmaps": {"a1@0": [[1, 2, 3]]}},
        {"dims": {"1@0": 1}, "arrowmaps": {"a2@0": [[7]]}},
        {"dims": {"1@0": 1}, "arrowmaps": {"a1@0": []}},
    ],
    ids=[
        "wrong-rank", "bad-shift", "unknown-vertex", "unknown-arrow",
        "misshapen-at-zero-target", "misshapen-at-zero-source", "rows-missing-at-zero-target",
    ],
)
def test_pushdown_rejects_bad_module_literals(tmp_path, capsys, module):
    code, _, err = _pushdown(capsys, tmp_path, module)
    assert code == 2
    assert err.startswith("SchemaError: ")


@pytest.mark.parametrize(
    "name, module, message",
    [
        # c1@2 is c1@0 over Z/2, and would overwrite its map
        ("n32_z2", {"dims": {"u1@0": 1, "u2@0": 1}, "arrowmaps": {"c1@0": [[1]], "c1@2": [[0]]}},
         "unknown arrow 'c1@2'"),
        # u1@3 is u1@1 over Z/2, and would overwrite its dimension
        ("n32_z2", {"dims": {"u1@1": 1, "u1@3": 2}}, "unknown object 'u1@3'"),
        ("n32_z2", {"dims": {"u1@01": 1}}, "unknown object 'u1@01'"),
        ("n32_z2", {"dims": {"u1@+1": 1}}, "unknown object 'u1@+1'"),
        ("n32", {"dims": {"1@01": 1}}, "unknown object '1@01'"),
        ("n32", {"dims": {"1@ 1": 1}}, "unknown object '1@ 1'"),
    ],
    ids=["cyclic-arrow-mod-m", "cyclic-object-mod-m", "cyclic-leading-zero", "cyclic-plus-sign",
         "free-abelian-leading-zero", "free-abelian-space"],
)
def test_pushdown_refuses_a_key_it_would_not_write(tmp_path, capsys, name, module, message):
    # a key that names an object or arrow another key can name too is
    # refused, so no entry silently wins over another
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(module))
    code, _, err = run(capsys, "pushdown", "--input", golden(name), "--module", str(path))
    assert code == 2
    assert err.startswith(f"SchemaError: {message}")


def test_pushdown_accepts_empty_maps_at_zero_endpoints(tmp_path, capsys):
    # the maps of a1@0 (1 x 0) and a2@0 (0 x 0) spelled out as empty rows
    module = {"dims": {"1@0": 1}, "arrowmaps": {"a1@0": [[]], "a2@0": []}}
    code, out, _ = _pushdown(capsys, tmp_path, module)
    assert code == 0
    assert json.loads(out) == {"dims": {"1": 1}, "arrowmaps": {}}


def test_enumerate_tilting_command(capsys):
    code, out, _ = run(
        capsys, "enumerate-tilting", "--input", golden("n32"), "--n", "1", "--dimcap", "8"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 14


def test_text_format(capsys):
    code, out, _ = run(
        capsys, "validate", "--input", golden("ka2"), "--format", "text"
    )
    assert code == 0
    assert "vertices: 2" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "check",
        "--input",
        golden("ka2"),
        "--claim",
        "Corres",
        "--n",
        "1",
        "--out",
        str(target),
    )
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_exit_code_mapping():
    assert VerificationReport(outcome=True).exit_code() == 0
    assert VerificationReport(outcome=False).exit_code() == 1
    assert VerificationReport(outcome="not-applicable").exit_code() == 3
    assert VerificationReport(outcome="indeterminate").exit_code() == 3


SRC = os.path.join(os.path.dirname(__file__), "..", "src", "quivercover")

# The verifiers whose reports run_claim returns; the nested checks
# (verify_ext_iso, the Corres and TiltingPushdown sub-reports, check_nMAG)
# write their own claim and instance.
TOP_LEVEL_VERIFIERS = {
    "precluster.py": (
        "verify_main1", "verify_main2", "verify_Pn_pushdown", "verify_bongab",
        "verify_selfinjectivity_criteria", "verify_equivalence_Z_Gp", "verify_mod_pushdown",
    ),
    "tautilt.py": ("scan_tau_n_tilting_finite",),
    "cli.py": ("_aggregate",),
}


def test_only_the_report_and_the_cli_name_not_applicable():
    # a claim raises HypothesisUnverified; run_claim alone turns it into the verdict
    naming = sorted(
        name for name in os.listdir(SRC)
        if name.endswith(".py") and "NOT_APPLICABLE" in open(os.path.join(SRC, name)).read()
    )
    assert naming == ["cli.py", "report.py"]


def test_no_top_level_verifier_writes_its_claim_or_instance():
    import ast

    written = []
    for name, functions in TOP_LEVEL_VERIFIERS.items():
        tree = ast.parse(open(os.path.join(SRC, name)).read())
        bodies = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in functions]
        assert sorted(f.name for f in bodies) == sorted(functions)
        for f in bodies:
            for call in ast.walk(f):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "VerificationReport":
                    written += [(f.name, k.arg) for k in call.keywords if k.arg in ("claim", "instance")]
    assert written == []


def test_suite_reports_every_claim_when_claims_raise(capsys):
    # at n = 2 TiltingPushdown raises on its ambient; it is reported, and
    # every other claim still runs
    code, out, _ = run(capsys, "suite", "--input", golden("loop2"), "--n", "2")
    assert code == 3
    reports = json.loads(out)
    assert [r["claim"] for r in reports] == list(CLAIM_IDS)
    assert reports[CLAIM_IDS.index("Main2")]["pass"] is True
    tilting = reports[CLAIM_IDS.index("TiltingPushdown")]
    assert tilting["pass"] == "not-applicable"
    assert tilting["notes"][0].startswith("AmbientNotClusterTilting: ")


@pytest.mark.parametrize("name", ["loop2", "n32"])
def test_n2_suite_stays_inside_the_covering(capsys, name):
    # translates and twists of any module stay on the covering carrier, so
    # Main2 and ModPushdown are decided
    code, out, _ = run(capsys, "suite", "--input", golden(name), "--n", "2")
    assert code == 3
    reports = {r["claim"]: r for r in json.loads(out)}
    assert reports["Main2"]["pass"] is True
    assert reports["ModPushdown"]["pass"] is True


def test_unmet_ambient_hypothesis_is_not_applicable(capsys):
    code, out, _ = run(
        capsys, "check", "--input", golden("ka2"), "--claim", "TiltingPushdown", "--n", "2"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["pass"] == "not-applicable"
    assert doc["notes"][0].startswith("AmbientNotClusterTilting: ")


def test_ambients_certified_once_per_claim(capsys, monkeypatch):
    calls = []
    original = tautilt.is_n_cluster_tilting

    def counting(*a, **kw):
        calls.append(a)
        return original(*a, **kw)

    monkeypatch.setattr(tautilt, "is_n_cluster_tilting", counting)
    code, _, _ = run(
        capsys, "check", "--input", golden("loop2"), "--claim", "TiltingPushdown", "--n", "1"
    )
    assert code == 0
    assert len(calls) == 2  # the upstairs and the downstairs ambient


def _mod_pushdown(capsys, name):
    code, out, _ = run(
        capsys, "check", "--input", golden(name), "--claim", "ModPushdown", "--n", "1"
    )
    assert code == 0
    return out


# sha256 of the ModPushdown report at n = 1.  The commit before `--window`
# went gave this same report at --window 4, at --window 6 and at the
# default window, once instance.window_halfwidth is read as instance.group.
MOD_PUSHDOWN_REPORT_SHA256 = {
    "n32": "b25f1ebadc6c6b5ab4d69429e914552d19a8e5470e77e0bde787f5fba399a9d6",
    "loop2": "ff2f190ea95b4c2f3e5ab2ef9fb902959a4813b5518ee83c3d2cfb0c89910d35",
}

# hom_basis calls of that claim; the commit before `--window` went made as
# many at --window 4 as at the default window.
MOD_PUSHDOWN_HOM_BASIS_CALLS = {"n32": 213, "loop2": 55}


@pytest.mark.parametrize("name", ["n32", "loop2"])
def test_mod_pushdown_report_is_window_independent(capsys, name):
    out = _mod_pushdown(capsys, name)
    assert json.loads(out)["pass"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == MOD_PUSHDOWN_REPORT_SHA256[name]


@pytest.mark.parametrize("name", ["n32", "loop2"])
def test_mod_pushdown_hom_basis_calls_are_window_independent(capsys, monkeypatch, name):
    # the upstairs category computes hom bases on demand, so no count grows
    # past the one every window gave; every module-level binding of hom_basis
    # is wrapped
    import quivercover

    original = quivercover.modules.hom_basis
    calls = []

    def counting(*a, **kw):
        calls.append(None)
        return original(*a, **kw)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("quivercover") and getattr(module, "hom_basis", None) is original:
            monkeypatch.setattr(module, "hom_basis", counting)
    _mod_pushdown(capsys, name)
    assert 0 < len(calls) <= MOD_PUSHDOWN_HOM_BASIS_CALLS[name]


# kernel_basis calls of `suite --n 1`, the two runs of the cover-suite-wide
# benchmark workload, recorded when the claims of a suite came to share one
# τ_n-closure per carrier and the knit to skip the steps its pool
# determines.  Before, 711 and 229, and when the translate closures moved
# onto `knitting.close`, from 708 and 228: that knit compared new pieces
# with centred classes, so hom bases cached then were hit again by the
# class tests of `is_generator_cogenerator`.  Lowered from 675 and 207 when
# P_n and I_n came to be kept on the carrier like the τ_n-closure, so that
# PnPushdown and SelfinjCriteria share them.  Lowered from 663 and 204 when
# Ext came to be read off the resolution by Yoneda, with no hom basis of a
# resolution term.  Lowered from 513 and 161 when a resolution came to
# build a kernel only when its stage is asked for, so a transpose builds no
# second syzygy, and a translate of a class came to be marked
# indecomposable, so decompose builds no End of it.
SUITE_KERNEL_BASIS_CALLS = {"n32": 458, "loop2": 145}


@pytest.mark.parametrize("name", sorted(SUITE_KERNEL_BASIS_CALLS))
def test_suite_kernel_basis_calls_do_not_grow(capsys, monkeypatch, name):
    # every module-level binding of kernel_basis is wrapped
    import quivercover

    original = quivercover.field.kernel_basis
    calls = []

    def counting(*a, **kw):
        calls.append(None)
        return original(*a, **kw)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("quivercover") and getattr(module, "kernel_basis", None) is original:
            monkeypatch.setattr(module, "kernel_basis", counting)
    code, _, _ = run(capsys, "suite", "--n", "1", "--input", golden(name))
    assert code == 0
    assert 0 < len(calls) <= SUITE_KERNEL_BASIS_CALLS[name]


@pytest.mark.parametrize("name", ["n32", "loop2", "n32_z2"])
def test_suite_answers_agree_across_seeds(capsys, name):
    # the seed drives the randomized searches only: every report is the same
    # under another seed once the seed it records is dropped
    reports = []
    for seed in ("1", "2"):
        code, out, _ = run(capsys, "suite", "--n", "1", "--input", golden(name), "--seed", seed)
        assert code == 0
        doc = json.loads(out)
        for rep in doc:
            assert rep["instance"].pop("seed") == int(seed)
        reports.append(doc)
    assert reports[0] == reports[1]


def test_seed_is_scoped_to_one_command(capsys, n32):
    code, _, _ = run(capsys, "validate", "--input", golden("n32"), "--seed", "7")
    assert code == 0
    assert n32.seed == ISO_SEED
    M = direct_sum([projective_at(n32, x) for x in n32.vertices])[0]
    decompose(M)
    assert "decompose" in M._cache
    assert not any(isinstance(k, tuple) and k[0] == "decompose" for k in M._cache)


# sha256 of the reports of the commit before the shared Ext-vanishing
# predicate; these are the cheapest runs that reach it (n >= 2).  The
# ZGpEquivalence entries were recorded again when its note stopped naming
# window twists; a field-wise JSON diff showed notes[0] as the only change.
# All were recorded again when `--window` went (they ran at --window 6): a
# field-wise JSON diff showed instance.window_halfwidth replaced by
# instance.group and the cover's describe string naming its group instead
# of a window of shifts as the only changes.
N2_REPORT_SHA256 = {
    ("n32", "SelfinjCriteria"): "651d09cec5108a6225f72d44164c790288382fd9bde747ce8683bf17e59c6bd6",
    ("n32", "ZGpEquivalence"): "59be85634628d425707815f6c1feb399236d23d440d9500e7bb8b58932f2a322",
    ("n32", "PnPushdown"): "541266843b17f34a67e489226a148bbf6ed87852390570275ece87fec3e0a446",
    ("sixcycle", "SelfinjCriteria"): "f72543cdc4190fcb4623be1a9ccb4f566c9d564af32a87052d09c76d3041ddb3",
    ("sixcycle", "ZGpEquivalence"): "9f25745d6c7a3bf4dbb859139945f53bc768e6963a3381c97befd5a2dac63696",
    ("sixcycle", "PnPushdown"): "e0fd254d46038df4a2f690af0650606368207628bd415905d5574c5e1b69ac4e",
}


@pytest.mark.parametrize("name,claim", sorted(N2_REPORT_SHA256))
def test_n2_ext_reports_unchanged(capsys, name, claim):
    code, out, _ = run(
        capsys, "check", "--input", golden(name), "--claim", claim, "--n", "2"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == N2_REPORT_SHA256[(name, claim)]


# sha256 and exit code of `suite --n 1`.  The n32 and loop2 entries were
# first recorded at --window 4 before covers, pools and representables were
# shared within a command, when DILemma was indeterminate here (a twist ran
# out of the window), and again once the carrier became window-free;
# DILemma's pass is the only difference.  Recorded again when ModPushdown's
# upstairs category became window-free: a field-wise JSON diff showed that
# its describe string, ModPushdown.witnesses[0].upstairs_nMAG.instance.carrier,
# is the only changed value (it counts twist orbits, not window translates).
# Recorded again when the ZGpEquivalence note stopped naming window twists:
# that note is the only changed value.  Recorded again when `--window` went:
# a field-wise JSON diff against --window 4 and the default window showed
# instance.window_halfwidth replaced by instance.group, the cover's describe
# strings, and the removed Corres matching[].class_size and Main2
# preimage_members as the only changes.  The other entries were first
# recorded then.
SUITE_N1_REPORT = {
    "ausl2": (0, "9429e14dcb2f463b66a3ffc6885412e444ebb21041b8cff5318c82f43c9c1189"),
    "ka2": (0, "fa954c6b3f6df53a58f6fd20ecfda66c8fbccb1aaea00fd85724adb05a33f400"),
    "ka3": (0, "07eaca5944a145537c8c760d42ebb4d5170b9ce2d8745e36d607071faa736774"),
    "loop2": (0, "3d078deb11eb423399ca8d053e70c373584cd391833bbfe50aff16fb1a260cdb"),
    "n32": (0, "df36b22fd6cbe4e79331fb1a17c40fa2fc7420c10cdd2583e329c6c9956d8f49"),
    "n32_z2": (0, "278679a015c9ac4fcbf2d405c2415962569c69eb752f15f053f6a0f0706b2d6b"),
    "sixcycle": (0, "7630dc16ce7d62a232919e23f579a5c32818eca0c1aed1daf91311e1d85dee44"),
}

# The grading group each golden algebra's reports name, and its number of
# indecomposables; n32_z2 is N(3,2) graded by Z/2, with m * l = 6 classes.
GOLDEN_GROUP_AND_CLASSES = {
    "ausl2": ({"kind": "free-abelian", "rank": 0}, 5),
    "ka2": ({"kind": "free-abelian", "rank": 0}, 3),
    "ka3": ({"kind": "free-abelian", "rank": 0}, 6),
    "loop2": ({"kind": "free-abelian", "rank": 1}, 2),
    "n32": ({"kind": "free-abelian", "rank": 1}, 6),
    "n32_z2": ({"kind": "cyclic", "m": 2}, 6),
    "sixcycle": ({"kind": "free-abelian", "rank": 0}, 12),
}


def _keys(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _keys(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _keys(value)


@pytest.mark.parametrize("name", sorted(SUITE_N1_REPORT))
def test_suite_reports_unchanged(capsys, name):
    code, out, _ = run(capsys, "suite", "--input", golden(name), "--n", "1")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SUITE_N1_REPORT[name]
    reports = json.loads(out)
    assert [r["pass"] for r in reports] == [True] * len(CLAIM_IDS)
    assert not any("window" in key for key in _keys(reports))
    group, classes = GOLDEN_GROUP_AND_CLASSES[name]
    assert all(r["instance"]["group"] == group for r in reports)
    bijection = reports[CLAIM_IDS.index("Corres")]["witnesses"][0]["witnesses"][0]
    assert bijection["orbit_classes"] == bijection["base_indecomposables"] == classes


# sha256 and exit code of `suite --n 1` on each golden with its field
# replaced by F_2, F_3 or F_5, recorded at the commit before decompose
# dropped the idempotents lifted from End(M)/rad.  Small characteristic is
# where decompose draws random endomorphisms: where p <= dim M the trace
# form gives no radical, so a module that no endomorphism splits stays
# undecided.  ausl2 over F_2 and F_3 and loop2 over F_2 are indeterminate
# for that reason; the other inputs pass.  Those three were recorded again
# when a translate of a class came to be marked indecomposable (Tr is a
# bijection on the indecomposable non-projectives), so their knits no longer
# decompose it: a field-wise JSON diff showed DILemma, SelfinjCriteria and
# ZGpEquivalence passing, each report then equal to its F_32003 report but
# for instance.input, and Main1 and ModPushdown naming instance.generators,
# their F_32003 value, as they now fail later, on a push-down of U, with
# the same note; nothing else changed.
SMALL_CHARACTERISTIC_SUITE_N1 = {
    ("ausl2", 2): (3, "38d1622e432fa664569e93a83c364380f1874e569fa76de2c30dfd92bec1a604"),
    ("ausl2", 3): (3, "fff4e77ddf2dcbdd336726da339037185ff0a1c492bd625d9a0a63b9aa97e2c4"),
    ("ausl2", 5): (0, "9996201fe9489bbe614fb060742cf3122f0f042533af47b83d2bbb7f5ddfe454"),
    ("ka2", 2): (0, "fd54e3548cbb4531a056a5cfabf09fe96b2aea41ad05ad7b3838e365ec8f5d8c"),
    ("ka2", 3): (0, "fd5bb347cf36e58cb574539b69d73ac71ffae3aea3616b9dadf60b3eee135cfd"),
    ("ka2", 5): (0, "f153943a835fe08006f02f7504008ebd00f2da5eecb60b2f75ca089fcb53f5b0"),
    ("ka3", 2): (0, "64e2c7cf04ec5782fdfacbfe5a692569811b9a36508fa99dd144b75a7d0fddfd"),
    ("ka3", 3): (0, "623c2edee0abd516edb679d2eeb0ce709c7b9e496456490cdd8c3c2adbd1648c"),
    ("ka3", 5): (0, "1a8a3d53c381b9ed13c40e0993ec7e03aff25bdf6cb8866a67d38f1651e30f11"),
    ("loop2", 2): (3, "34c38ba071bd66adfc74793d3c7675c9c7777210771463f4ee55edffbcb52cba"),
    ("loop2", 3): (0, "22879fba0572c8c06eb545d83721d2760e854422513a7908846941f182d42e12"),
    ("loop2", 5): (0, "4ce13974ac0a4bc7ee26129394c6aaf314d9644ac9f0f10b7ae342f18d8b437c"),
    ("n32", 2): (0, "ae8611383a4889b253437ec9e641a356818b16b03ee5fb14fe2a95b4af0137f7"),
    ("n32", 3): (0, "2a2fa17e64722d2394e79e1d1853e9c66474bad74c85c89a7586d3dd047b6705"),
    ("n32", 5): (0, "9e951b00291cdc7260a9836cd3911b0cf6ef59e116c8b61243b88521af9e278c"),
    ("n32_z2", 2): (0, "91da2c26552be50458cc9ee1bbca539336152162b591a929f25ff5bb653f252f"),
    ("n32_z2", 3): (0, "04306ad1632c8372600d59a89afd7890027443b66225097fad2e6cd5ecbe022d"),
    ("n32_z2", 5): (0, "2ae8ed650d984f9ce661af95c16950cf2d152111e9b28398666b50bfe743142c"),
    ("sixcycle", 2): (0, "a85e869815302689121ae7c7ff0b3c2744405f6e35f0be6a6b5b23414d0b5a89"),
    ("sixcycle", 3): (0, "f6c456e1a7aae8ed20861c71ade390a786b8850a86727b3d3d0993fec34720fc"),
    ("sixcycle", 5): (0, "d57e98a38a65d45f406d15569e982a4149f40c9279eb140faeb91873248e7e81"),
}


@pytest.mark.parametrize("name,p", sorted(SMALL_CHARACTERISTIC_SUITE_N1))
def test_small_characteristic_suite_reports_unchanged(capsys, tmp_path, name, p):
    doc = golden_doc(name)
    doc["field"] = {"kind": "prime", "p": p}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "suite", "--n", "1", "--input", str(path))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SMALL_CHARACTERISTIC_SUITE_N1[(name, p)]
    notes = {note for r in json.loads(out) for note in r["notes"]}
    inconclusive = {note for note in notes if note.startswith("DecompositionInconclusive")}
    assert bool(inconclusive) == (code == 3)


# sha256 and exit code of `suite --n 2`, recorded at the commit before the
# twist of every class and Ext test came from the carrier.  At n = 2 the
# precluster checks test Ext^1 across every twist, which n = 1 never reaches.
SUITE_N2_REPORT = {
    "ausl2": (3, "d81a4a39fa30bf8101bfb73c07f957d7784723ff3b46bb6396b9d5078dac024a"),
    "ka2": (3, "dbabb6067b852cd10326c27cfb8248d5973fa45e33f188bce266184d83f68448"),
    "ka3": (3, "9b98e8a455ac6a2726d4fe427aa783e3f6cccca97360834a3dd142745abc26b0"),
    "loop2": (3, "863545db2401057b51e36d0cac88f836aef05db9eb31ce033400b431045d05bd"),
    "n32": (3, "90b7fd698f8a9c6b77f0a163b0cfde86d58f9a334274d0aa4589c46f619dfd7b"),
    "n32_z2": (3, "1453e745a48574d4975204674c8d6b720adf0df9b1ec286174b1d23ae9a40fb9"),
    "sixcycle": (3, "e3f2a759d1819a45454e57b3fada2505408bd0ef2815ad729959fbd6464bb8f0"),
}


@pytest.mark.parametrize("name", sorted(SUITE_N2_REPORT))
def test_n2_suite_reports_unchanged(capsys, name):
    code, out, _ = run(capsys, "suite", "--input", golden(name), "--n", "2")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SUITE_N2_REPORT[name]


# sha256 and exit code of `suite --n 3`, recorded at the commit before Ext
# was read off the resolution by Yoneda.  At n = 3 the precluster checks test
# Ext^1 and Ext^2 across every twist; every verdict is pass or
# not-applicable.
SUITE_N3_REPORT = {
    "ausl2": (3, "aa1d4a2323e772693d7eb42f17be796700b0f902122b654d8a9dd6c515513813"),
    "ka2": (3, "1c99d09c42a76089028e146dc81aa4eddb1213ce104df1aa49e0e051de46e7d8"),
    "ka3": (3, "989a34fc1279703c14477bd71725a1f401b49e0bd4ccfdedf2c3ca76b345dbf4"),
    "loop2": (3, "80d89fc002f66733edb8c77a0c866fec4ad27bb5b166c65833a2a35159d03104"),
    "n32": (3, "4e856802293ad92c46d2cb8d1d481d186c12e06ba7abd4cdf35bfd7b092e4eea"),
    "n32_z2": (3, "cc3e2305bb70ebb620fe50395fe7423a94d30e810025d35bb6485f5c1cb9ab03"),
    "sixcycle": (3, "b59765fd198f442cfa892a71beaf6fc7768a384448414661e4ecfb22849419c9"),
}


@pytest.mark.parametrize("name", sorted(SUITE_N3_REPORT))
def test_n3_suite_reports_unchanged(capsys, name):
    code, out, _ = run(capsys, "suite", "--input", golden(name), "--n", "3")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SUITE_N3_REPORT[name]
    assert {r["pass"] for r in json.loads(out)} <= {True, "not-applicable"}


# sha256 and exit code of runs the window-free carrier leaves unchanged,
# recorded at the commit before it.  The `indecs --cover` listing was
# recorded again when the knit began to close twist orbits: it lists one
# centred module per orbit, which test_covering checks against the window knit.
# The suite entry was recorded again when ModPushdown's upstairs category
# became window-free; only its describe string changed, as in SUITE_N1_REPORT,
# and again with SUITE_N1_REPORT for the ZGpEquivalence note and when
# `--window` went.  The `indecs --cover` listing ran at --window 4 until
# then and is byte-identical without it.
WINDOW_FREE_REPORT = {
    ("suite", "loop2", "--n", "1"): (
        0, "3d078deb11eb423399ca8d053e70c373584cd391833bbfe50aff16fb1a260cdb"
    ),
    ("indecs", "n32", "--cover"): (
        0, "83737a49ef6619dfdbede69e1280cd2fbebf2fd3216bea035b4ef3b100a5c917"
    ),
}


@pytest.mark.parametrize("argv", sorted(WINDOW_FREE_REPORT), ids=" ".join)
def test_reports_unchanged_by_the_window_free_carrier(capsys, argv):
    command, name, *rest = argv
    code, out, _ = run(capsys, command, "--input", golden(name), *rest)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == WINDOW_FREE_REPORT[argv]


# sha256 and exit code of `suite --n 1 --cap K` on ka3, recorded when the
# translate closures moved onto `knitting.close`; the commit before gave the
# same bytes.  Below cap 2 the τ_n-closure candidate does not stabilize, and
# P_n does not stabilize within cap 2 on either side of the covering.
SUITE_KA3_CAP_REPORT = {
    0: (3, "9c272e4e4b2a15341de975f7541973ed5c93411e6d9c5317a76fbacd3560a3ca"),
    1: (3, "38ab3d9b48884d68da8e79135098aa3cfa4279b986c3bace37bbe0bcbf3fe03b"),
    2: (3, "09238420bacc3b4e04a0e1bcc5f8918739c98c51cdaf3d8ec89b6dd69d3c9bfd"),
}


@pytest.mark.parametrize("cap", sorted(SUITE_KA3_CAP_REPORT))
def test_a_cap_that_stops_a_translate_closure_is_indeterminate(capsys, cap):
    code, out, _ = run(capsys, "suite", "--n", "1", "--cap", str(cap), "--input", golden("ka3"))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SUITE_KA3_CAP_REPORT[cap]
    reports = {r["claim"]: r for r in json.loads(out)}
    for claim in ("Main1", "Main2", "ZGpEquivalence", "ModPushdown"):
        if cap < 2:
            assert reports[claim]["pass"] == "indeterminate"
            assert f"did not stabilize within {cap} iterations; raise --cap" in reports[claim]["notes"][0]
        else:
            assert reports[claim]["pass"] is True
    pn = reports["PnPushdown"]
    assert pn["pass"] == "indeterminate"
    assert pn["caps"] == {"cap": cap, "upstairs_stabilized": False, "downstairs_stabilized": False}


def test_corres_class_cap_counts_orbits_not_window_members(n32_cover):
    # the cap bounds the 6 twist orbits; the twists of each orbit are
    # infinitely many and never counted
    assert verify_orbit_bijection(n32_cover, class_cap=6).outcome is True
    with pytest.raises(CapExceeded):
        verify_orbit_bijection(n32_cover, class_cap=5)


def test_a_dimcap_below_an_indecomposable_stops_the_knit(n32, n32_cover):
    # N(3,2) has indecomposables of dimension 2: a cap of 1 would cut the
    # pool, and every check over the cut pool would pass vacuously
    for carrier in (n32, n32_cover):
        assert len(list_indecomposables(carrier, dimcap=2)) == 6
        with pytest.raises(CapExceeded, match="exceeds --dimcap 1"):
            list_indecomposables(carrier, dimcap=1)


# The claims that read an indecomposable pool or a translate closure, both
# of which --dimcap caps; BonGab reads neither.
CAPPED_CLAIMS = tuple(claim for claim in CLAIM_IDS if claim != "BonGab")


@pytest.mark.parametrize("dimcap", ["0", "1"])
def test_a_dimcap_that_cuts_the_pool_is_indeterminate(capsys, dimcap):
    code, out, _ = run(capsys, "suite", "--n", "1", "--dimcap", dimcap, "--input", golden("n32"))
    assert code == 3
    reports = {r["claim"]: r for r in json.loads(out)}
    for claim in CAPPED_CLAIMS:
        assert reports[claim]["pass"] == "indeterminate"
        assert reports[claim]["notes"][0].startswith("CapExceeded: an indecomposable of dimension")
        assert reports[claim]["notes"][0].endswith(f"exceeds --dimcap {dimcap}")
    assert reports["BonGab"]["pass"] is True


@pytest.mark.parametrize("claim", ["PnPushdown", "Main1", "SelfinjCriteria"])
def test_a_dimcap_stops_a_translate_closure_that_keeps_growing(capsys, tmp_path, kronecker, claim):
    # τ⁻ of the Kronecker quiver's projectives grows without end; the
    # dimcap stops the closure long before its round cap runs out
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps(kronecker.to_json_dict()))
    argv = ["check", "--claim", claim, "--dimcap", "12", "--input", str(path)]
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    assert (code, report["pass"]) == (3, "indeterminate")
    assert report["notes"] == ["CapExceeded: an indecomposable of dimension 13 exceeds --dimcap 12"]


def test_indecs_beyond_the_dimcap_is_an_input_error(capsys):
    code, out, err = run(capsys, "indecs", "--dimcap", "1", "--input", golden("n32"))
    assert (code, out) == (2, "")
    assert err == "CapExceeded: an indecomposable of dimension 2 exceeds --dimcap 1\n"


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["check", "--claim", claim] for claim in CLAIM_IDS] + [["suite"], ["enumerate-tilting"]],
    ids=" ".join,
)
def test_n_below_one_is_a_usage_error(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--n", n, "--input", golden("n32"))
    assert (code, out) == (2, "")
    assert f"argument --n: n must be at least 1, got {n}" in err


# sha256 and exit code of `check --n 1` on sixcycle, recorded at the commit
# before the orbit partition was kept per pool and TiltingPushdown read
# index pairs.  Recorded again when `--window` went, with the field-wise
# changes listed at SUITE_N1_REPORT.
SIXCYCLE_N1_REPORT = {
    "TiltingPushdown": (0, "924bae2710d1e7e1698fd172816df89000a20b463ccb00ebf821a89a51812c5f"),
    "Main2": (0, "6eacff5acbf939375fc7353c1e87f3e2ee6a6730d1a4040f247e938e928ddb50"),
    "Corres": (0, "73dbdeed00970fdb9509a4c13c46470591ed3b99d019c753b1a981b1f993247c"),
    "TiltingFinite": (0, "540cbc4c652f104ae1f4fe471645803999236843f582f491ca1a0ae6f1879b15"),
}


@pytest.mark.parametrize("claim", sorted(SIXCYCLE_N1_REPORT))
def test_sixcycle_reports_unchanged(capsys, claim):
    code, out, _ = run(capsys, "check", "--input", golden("sixcycle"), "--claim", claim, "--n", "1")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SIXCYCLE_N1_REPORT[claim]


# Dynkin diagrams with every edge oriented from the smaller Bourbaki label
# to the larger, with the length of their longest path
DYNKIN = {
    "E6": ([(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)], 4),
    "E7": ([(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7)], 5),
    "D8": ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)], 6),
}
F_32003 = {"kind": "prime", "p": 32003}
Q = {"kind": "rationals"}


def _write_dynkin(tmp_path, diagram, field) -> str:
    """The path algebra of the diagram, Z-graded with every arrow of weight 1,
    written as a presentation file."""
    edges, nilbound = DYNKIN[diagram]
    doc = {
        "field": field,
        "group": {"kind": "free-abelian", "rank": 1},
        "vertices": [str(v) for v in range(1, max(map(max, edges)) + 1)],
        "arrows": [{"id": f"a{a}_{b}", "src": str(a), "tgt": str(b), "weight": [1]} for a, b in edges],
        "relations": [],
        "nilbound": nilbound,
    }
    path = tmp_path / f"{diagram}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _exit_code_and_imports(argv, unused=()):
    # run the CLI in a fresh interpreter; 10 + exit code if it imported sympy
    # or numpy (the package needs neither at run time) or a `quivercover`
    # module named in `unused`; it lists those it loaded on stderr
    banned = {"sympy", "numpy", *(f"quivercover.{name}" for name in unused)}
    script = (
        "import sys\n"
        "from quivercover.cli import main\n"
        f"code = main({argv!r})\n"
        f"loaded = sorted({banned!r} & set(sys.modules))\n"
        "print('loaded:', *loaded, file=sys.stderr)\n"
        "sys.exit(10 + code if loaded else code)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)


def test_validate_does_not_import_sympy():
    # sympy is imported lazily, by polynomial factoring only; numpy never
    proc = _exit_code_and_imports(["validate", "--input", golden("n32")])
    assert proc.returncode == 0, proc.stderr


def test_ka3_suite_does_not_import_sympy():
    # each minimal polynomial it factors is a product of linear factors
    proc = _exit_code_and_imports(["suite", "--input", golden("ka3"), "--n", "1"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "field",
    [F_32003, Q, {"kind": "prime", "p": 2147483647}],
    ids=["F_32003", "Q", "F_2147483647"],
)
def test_e6_knit_does_not_import_sympy(tmp_path, field):
    path = _write_dynkin(tmp_path, "E6", field)
    proc = _exit_code_and_imports(["indecs", "--input", path])
    assert proc.returncode == 0, proc.stderr


# the layers `validate` never runs, and those of them `indecs` never runs
VALIDATE_UNUSED = (
    "cover", "modules", "homology", "covering", "knitting", "endo", "precluster", "tautilt",
    "module_io",
)
INDECS_UNUSED = ("endo", "precluster", "tautilt")


@pytest.mark.parametrize("name", GOLDENS)
def test_validate_loads_no_module_layer(name):
    proc = _exit_code_and_imports(["validate", "--input", golden(name)], VALIDATE_UNUSED)
    assert proc.returncode == 0, proc.stderr


def test_indecs_loads_no_precluster_or_tilting_layer(tmp_path):
    path = _write_dynkin(tmp_path, "E6", F_32003)
    proc = _exit_code_and_imports(["indecs", "--input", path], INDECS_UNUSED)
    assert proc.returncode == 0, proc.stderr


# what `from quivercover import *` bound in a fresh interpreter when
# `__init__` imported every layer: each export and each submodule it loaded
STAR_NAMES = (
    "AmbientNotClusterTilting CapExceeded CoverCarrier DecompositionInconclusive DimBound "
    "EndoCarrier FDModule Field GradedQuiverPresentation Group HypothesisUnverified "
    "InhomogeneousRelation Mat ModMorphism NotAdmissible NotFreeAction NotLocallyBounded "
    "PreclusterVerdict QuiverCoverError RelationViolated Resolution SchemaError ShapeMismatch "
    "TiltingGraph VerificationReport canonical_orbit_rep carrier check_nMAG class_index "
    "compute_In compute_Pn compute_Z cover covering decompose direct_sum "
    "dominant_dimension_upto dual_module endo enumerate_support_tilting_pairs errors ext_dim "
    "ext_twist_sum ext_vanishes field find_iso groups hom_basis hom_dim "
    "homology inj_dim_upto injective_at is_G_tau_n_rigid "
    "is_generator_cogenerator is_gorenstein_projective is_indecomposable is_isomorphic "
    "is_n_cluster_tilting is_n_precluster is_projective_module is_support_tilting_pair "
    "kernel_basis knitting list_indecomposables listing_to_json load_presentation "
    "load_presentation_file min_proj_resolution module_from_json module_io module_to_json "
    "modules orbit_of_finite_action phi_module precluster presentation proj_dim_upto "
    "projective_at projective_cover push_down push_down_morphism radical_inclusion rank report "
    "rref scan_tau_n_tilting_finite simple_at smash_cover socle_inclusion solve_linear syzygy "
    "tau tau_n tau_n_minus tautilt transpose twist_module twisted_iso validate_module "
    "verify_Pn_pushdown verify_bongab verify_equivalence_Z_Gp verify_ext_iso "
    "verify_indecomposable_preservation verify_main1 verify_main2 verify_mod_pushdown "
    "verify_orbit_bijection verify_selfinjectivity_criteria verify_tilting_pushdown zero_module"
).split()


def test_every_export_is_its_submodules_object():
    import importlib

    import quivercover

    for name in quivercover.__all__:
        module = importlib.import_module(f"quivercover.{quivercover._EXPORTS[name]}")
        want = module if module.__name__ == f"quivercover.{name}" else getattr(module, name)
        assert getattr(quivercover, name) is want, name
    assert set(quivercover.__all__) <= set(dir(quivercover))
    with pytest.raises(AttributeError):
        quivercover.not_an_export


def test_star_import_binds_what_the_eager_package_bound():
    namespace = {}
    exec("from quivercover import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(STAR_NAMES)


@pytest.mark.parametrize(
    "change",
    [{"field": {"kind": "prime", "p": 2**61 - 1}}, {"nilbound": 1000}],
    ids=["p = 2^61 - 1", "nilbound 1000"],
)
def test_n32_validates_with_a_large_prime_or_an_overstated_nilbound(capsys, tmp_path, change):
    path = tmp_path / "n32.json"
    path.write_text(json.dumps({**golden_doc("n32"), **change}), encoding="utf-8")
    code, out, _ = run(capsys, "validate", "--input", str(path))
    assert code == 0
    assert (json.loads(out)["total_dimension"], json.loads(out)["tight_nilbound"]) == (6, 1)


def test_loop2_suite_does_not_import_sympy():
    # every factorisation on this run is a power of one linear factor
    proc = _exit_code_and_imports(["suite", "--input", golden("loop2"), "--n", "1"])
    assert proc.returncode == 0, proc.stderr


# sha256 of the `indecs` listing, recorded at the commit before the
# decomposition core was written once (one Krylov minimal polynomial, one
# hom-basis combination, one composite iso search)
INDECS_LISTING_SHA256 = {
    "ausl2": "99a09a16106a035f03b97ac3cd1a74fd28ce6b20e8778a53310dd3385e6b80d9",
    "ka2": "a3de89cf63c9d6302dd199252f31837006e4c5192f291a7d9b3b1f9e24fea5c3",
    "ka3": "d6606979e9afb95c4ccaebec1b7861fdbeaba3ba42dbd4cef496f39da2f21162",
    "loop2": "53f6fd6f5d30d20bed8ef606f375180ec27d03b3695cf5b8fe516c5cd8c7485e",
    "n32": "e3aeefac8bc3160adaffb483f83bb9d183ca2ccbc2a6b5459cfe40a307ae3174",
    "n32_z2": "4bbb1a2bf52481b8c428efd9dc228bde7393d48b9d2a6bc20ffe537f91ab453b",
    "sixcycle": "341bc0932fdf6a70878a0457e612679f1ad66267698dbeff8211fdd2db0f9261",
}
# the Dynkin listings were re-recorded when the knit of a hereditary carrier
# came to take τ and τ⁻ alone, and again when it came to take τ⁻ alone: the
# same dimension vectors, one per positive root, met in another order
DYNKIN_LISTING_SHA256 = {
    ("E6", "F_32003"): "765a5967274c279944f6478ecdf6288c33a83c1f98133a21d8c9b7fb2fba8fee",
    ("E7", "F_32003"): "f6b379341bac6bb31ec6315ce03b3b8ec083414934a6ae90a228d9a1b0ae0fe8",
    ("E6", "Q"): "c1c09ac60c45d6ae10c916c0d3fa7e895fe98acb23fc98db8d841583fb260c37",
    ("D8", "Q"): "36849ee27f84ffeace9f92d6cd4a383e7cd04d8b20fc85c19ef3f5f169290b51",
}


@pytest.mark.parametrize("name", sorted(INDECS_LISTING_SHA256))
def test_golden_listings_unchanged(capsys, name):
    code, out, _ = run(capsys, "indecs", "--input", golden(name))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, INDECS_LISTING_SHA256[name])


@pytest.mark.parametrize(
    "diagram, field", sorted(DYNKIN_LISTING_SHA256), ids=[" ".join(k) for k in sorted(DYNKIN_LISTING_SHA256)]
)
def test_dynkin_listings_unchanged(capsys, tmp_path, diagram, field):
    path = _write_dynkin(tmp_path, diagram, {"F_32003": F_32003, "Q": Q}[field])
    code, out, _ = run(capsys, "indecs", "--input", path)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, DYNKIN_LISTING_SHA256[(diagram, field)])


# sha256 of the `indecs --cover` listing (n32's is in WINDOW_FREE_REPORT)
# and of `enumerate-tilting --n 1`, without and with `--cover`, recorded at
# the commit before the injective side (representables, cosyzygies, tau_n^-
# and dominant dimension) was read through the duality over the opposite;
# every run exits 0
COVER_LISTING_SHA256 = {
    "ausl2": "e2a9eba3f5e21578ad961e1e625a8908c60cacb82fd404d3fd631b6602ed6111",
    "ka2": "7e5844412424d0d57a8bb84c81875b7a527ac4145790c231418d501ce08a5554",
    "ka3": "5fc1e18477358691a510358ac316e7006edfe538820d12fd5dc47e72c40e1e97",
    "loop2": "9a77f6ea05e62045f4c353173863584acf5cb71ba0982f8cf5ae6f70e128f3fd",
    "n32_z2": "3ec67b648e46c4064c77e2f022055f9964f070018562cbc8b30d7d50f3ba0637",
    "sixcycle": "d762be5fa866c7ee6c0ef8759188491e7abbafec95fcbb82c17321abe3c2c892",
}
TILTING_LISTING_SHA256 = {
    ("ausl2", False): "34acdb7d212e3ca7759ac593b0d24403fd5342bc69ab78e5b0f3c0cef7f8121f",
    ("ka2", False): "89ff133c9a2da26c73ae504279036d078e8394b11e0fd924da5287ed587da2a0",
    ("ka3", False): "91aad52d2ef228a8356e6c4e3919d235a3ccdb73fc8386dccbc194460f543dae",
    ("loop2", False): "86273612696899572dd9cf8dbd1fcaf89a059566461825095248548127ebfd99",
    ("n32", False): "5037feaa3a02b94b9d2de75e3f7bd482ab6ef6710525e90d46325096bb57f80f",
    ("n32_z2", False): "92232307cc3f8cbee8953b2979babfcf1297415431eff3aba4634167626c47ad",
    ("sixcycle", False): "d4d0aff33992c5f3cdb6e7233ebe099049c7a91d794c4d64af636cee2e38cc90",
    ("ausl2", True): "46ca8e04c6ded9a2db9febf92b967ee1d4e7b65a363f9ac2cc3c651a7a7d8899",
    ("ka2", True): "e6b438638d14376827f1061ea52fc88673b2f37cfa2eee0320686bac77b86249",
    ("ka3", True): "1c97fe48cb331ab830703a39d82d9a95819acfb26b72e8053e6baf130320e3c7",
    ("loop2", True): "2d1a1612623bfc969a5975b935272f6cc596c8f0305e768194e6e23cd8ae86df",
    ("n32", True): "88a78a9d9c04c3fb06a37b2aa3070bcee4feacbe886c717218d2254ba84b4fd4",
    ("n32_z2", True): "9a0a72cede2c29c2d5f29336e40dd0ebf66e87cab283e0ecd14c0961c503c1e0",
    ("sixcycle", True): "95d9d76c97079f35e0596844acb262056bb038056605f9b7135440a6d40c417d",
}


@pytest.mark.parametrize("name", sorted(COVER_LISTING_SHA256))
def test_cover_listings_unchanged(capsys, name):
    code, out, _ = run(capsys, "indecs", "--input", golden(name), "--cover")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, COVER_LISTING_SHA256[name])


@pytest.mark.parametrize(
    "name, cover", sorted(TILTING_LISTING_SHA256), ids=[f"{n}-{'cover' if c else 'base'}" for n, c in sorted(TILTING_LISTING_SHA256)]
)
def test_tilting_listings_unchanged(capsys, name, cover):
    argv = ["enumerate-tilting", "--input", golden(name), "--n", "1"] + ["--cover"] * cover
    code, out, _ = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, TILTING_LISTING_SHA256[(name, cover)])
