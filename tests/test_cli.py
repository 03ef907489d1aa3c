import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omegalab.morse
from omegalab import verify
from omegalab.boxcomplex import build_box, format_complex, parse_complex
from omegalab.cli import _detect_and_parse, cli, main
from omegalab.errors import DEFAULT_BUDGETS, Budgets, ContractError, ParameterError, ParseError, ResourceError
from omegalab.functors import Homomorphism
from omegalab.graphs import clique, cycle_graph, format_graph, parse_graph, petersen
from omegalab.homsearch import format_witness, parse_witness
from omegalab.morse import pipeline
from omegalab.verify import exit_code, run_suite

from util import cli_env, random_free_complex, random_graph


def run_cli(argv, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout)."""
    code = 0
    try:
        main(argv)
    except SystemExit as exc:
        code = exc.code or 0
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def graph_files(tmp_path):
    paths = {}
    for name, g in [("k3", clique(3)), ("k4", clique(4)), ("c5", cycle_graph(5)), ("pet", petersen())]:
        p = tmp_path / f"{name}.graph"
        p.write_text(format_graph(g))
        paths[name] = p
    return paths


def test_functor_roundtrip(tmp_path, graph_files, capsys):
    out = tmp_path / "o3k4.graph"
    code, text = run_cli(["functor", "omega", "-k", "3", "-i", str(graph_files["k4"]), "-o", str(out)], capsys)
    assert code == 0 and "28 vertices" in text
    g = parse_graph(out.read_text())
    assert g.n == 28 and g.labels is not None
    assert "0{1 2 3}" in g.labels  # tuple label grammar


# SHA-256 of the `functor` output file per (input, kind, -k); None where the
# command refuses the index (omega-prime needs k >= 3) and writes nothing.
# The looped input has a loop at 0 and a pendant vertex 3; the labelled one
# is C4 with named vertices
FUNCTOR_OUTPUT_SHA256 = {
    ("k4", "gamma", 1): "bb49055470d9af98c2652281126b3268cfe78959fedab6df25ddf7f548af610d",
    ("k4", "gamma", 3): "8cce8592458d32c2a8c39178c2523e9c17441ea25463ab79ba354d429a151fb9",
    ("k4", "gamma", 5): "999982d8082224043fd72b9e19e6a8f84983374de150d6cd04daacf465b2aec0",
    ("k4", "omega", 1): "bb49055470d9af98c2652281126b3268cfe78959fedab6df25ddf7f548af610d",
    ("k4", "omega", 3): "946f756d7ae84cb68d14ff2c0c6c3ae781314c6c380c82b8d8bf0dfcdd38c353",
    ("k4", "omega", 5): "3dcce7c667887e23665161e0f9ac328758f285f71f7312b4a19072d39918c0d1",
    ("k4", "omega-prime", 1): None,
    ("k4", "omega-prime", 3): "0c442c255627c2dd2b289f0f7ad9b8a765825f18354fa82925aae78f0e6405a6",
    ("k4", "omega-prime", 5): "23bcc5538b3fce9cc7991992adee4e32ccc71a211942f3a92c43fbcd328536d3",
    ("pet", "gamma", 1): "f98db7fb9306f14dd7cae6b609a5ce08d3614a029b033032d8de4cdcda01483f",
    ("pet", "gamma", 3): "99bf9602aa120188f553c83ba2f01843904773a76414aae2bc8339f237909ba5",
    ("pet", "gamma", 5): "6faa643da067f400c63512a67919e176c4efdea16802d3e16bacb9ffbac074cb",
    ("pet", "omega", 1): "f98db7fb9306f14dd7cae6b609a5ce08d3614a029b033032d8de4cdcda01483f",
    ("pet", "omega", 3): "5353e4061da308370d01117618b151a1f1976bffb791d7e5c01150ebf480f898",
    ("pet", "omega", 5): "89041bf80b1528ae72ff9c98708ecf7bf2c0f02527f68d37ac55a38a6a46c3a8",
    ("pet", "omega-prime", 1): None,
    ("pet", "omega-prime", 3): "9d9095f46288fd27d2a29d93f33251431e596a3b2f5bbf1c21fa07cc257abdda",
    ("pet", "omega-prime", 5): "87ff9fa67309b005d7c4a7a93328e25d2dc121222fba10de2a711b44e264da99",
    ("labelled", "gamma", 1): "1ea8b352c7563b4d8a47f8786268c56113115e151e7168052af6d536d6910a34",
    ("labelled", "gamma", 3): "57fafe7c99153d126f3095bf05c099b9f087064684136fc34a62d48fed41a293",
    ("labelled", "gamma", 5): "ffe43115b32b543a101e832cfd4273e647abac49709f21db0b9da1f5961799c3",
    ("labelled", "omega", 1): "1ea8b352c7563b4d8a47f8786268c56113115e151e7168052af6d536d6910a34",
    ("labelled", "omega", 3): "d120a24a40ce1c352948c52cd9a92495a56c11702e33b52825d2f4381231c626",
    ("labelled", "omega", 5): "6be3eeea32ee5ef61fdae030c92666f214192e1603d509196f2c784f38855161",
    ("labelled", "omega-prime", 1): None,
    ("labelled", "omega-prime", 3): "d120a24a40ce1c352948c52cd9a92495a56c11702e33b52825d2f4381231c626",
    ("labelled", "omega-prime", 5): "6be3eeea32ee5ef61fdae030c92666f214192e1603d509196f2c784f38855161",
    ("looped", "gamma", 1): "df655b02f9561e02180f2b4e47fb21969000db9b18134275d542e1983589bfbd",
    ("looped", "gamma", 3): "782fc6cf529bcd41ac92cc6284bb998d086709a9cadc5fd624edc6d8d014f89c",
    ("looped", "gamma", 5): "60843d0e63383a93f79af4f600faafbf3a088e269c8a6e596bba38b92c897660",
    ("looped", "omega", 1): "df655b02f9561e02180f2b4e47fb21969000db9b18134275d542e1983589bfbd",
    ("looped", "omega", 3): "b08989466379440963fb3f0c8a4cc6e6290afe9afbec7a87bfcd6c0d9e270235",
    ("looped", "omega", 5): "b823168ab41ca5cea196abc3aba1992f1c940570f3d9ae2d846b7c2faa05e571",
    ("looped", "omega-prime", 1): None,
    ("looped", "omega-prime", 3): "289a912b69d52b48588aac0f8ced88a40f4a66c4cb2f8079652c2b53326aa3e0",
    ("looped", "omega-prime", 5): "104a633dea5787f70ae3ac6e272ddeeffd95373b0f0676866c63d705e6b27b3f",
}
LOOPED_GRAPH = "p 4 5\ne 0 0\ne 0 1\ne 1 2\ne 0 2\ne 2 3\n"
LABELLED_GRAPH = "p 4 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\nl 0 a\nl 1 b\nl 2 c\nl 3 d\n"


def test_functor_outputs_are_pinned(tmp_path, graph_files, capsys):
    inputs = {"k4": graph_files["k4"], "pet": graph_files["pet"]}
    for name, text in (("labelled", LABELLED_GRAPH), ("looped", LOOPED_GRAPH)):
        inputs[name] = tmp_path / f"{name}.graph"
        inputs[name].write_text(text)
    for (name, kind, k), digest in FUNCTOR_OUTPUT_SHA256.items():
        out = tmp_path / f"{name}-{kind}-{k}.graph"
        code, _ = run_cli(["functor", kind, "-k", str(k), "-i", str(inputs[name]), "-o", str(out)], capsys)
        if digest is None:
            assert code == 1 and not out.exists(), (name, kind, k)
        else:
            assert code == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (name, kind, k)


def test_convert_graph_byte_exact(tmp_path, graph_files, capsys):
    out1 = tmp_path / "a.graph"
    out2 = tmp_path / "b.graph"
    run_cli(["convert", "-i", str(graph_files["pet"]), "-o", str(out1)], capsys)
    run_cli(["convert", "-i", str(out1), "-o", str(out2)], capsys)
    assert out1.read_bytes() == out2.read_bytes()


def test_hom_yes_and_witness(tmp_path, graph_files, capsys):
    wit = tmp_path / "w.map"
    code, text = run_cli(
        ["hom", "-g", str(graph_files["c5"]), "-h", str(graph_files["k3"]), "--witness", str(wit)],
        capsys,
    )
    assert code == 0 and "hom: yes" in text
    lines = wit.read_text().splitlines()
    assert len(lines) == 5 and all(line.startswith("m ") for line in lines)


def test_hom_none_exits_one(graph_files, capsys):
    code, text = run_cli(["hom", "-g", str(graph_files["k4"]), "-h", str(graph_files["k3"])], capsys)
    assert code == 1 and "hom: none" in text


def test_chromatic(graph_files, capsys):
    code, text = run_cli(["chromatic", "-i", str(graph_files["pet"])], capsys)
    assert code == 0 and text.strip() == "3"


def test_box_homology_show(tmp_path, graph_files, capsys):
    cx = tmp_path / "k4.cx"
    run_cli(["box", "-i", str(graph_files["k4"]), "-o", str(cx)], capsys)
    code, text = run_cli(["homology", "-i", str(cx)], capsys)
    assert code == 0 and text.strip() == "betti: 1 0 1 ; euler: 2"
    code, text = run_cli(["show", "-i", str(cx)], capsys)
    assert code == 0 and "14 facets" in text
    code, text = run_cli(["show", "-i", str(graph_files["c5"])], capsys)
    assert "5 vertices, 5 edges" in text


def test_morse_certificate(tmp_path, graph_files, capsys):
    cert = tmp_path / "k3.cert"
    code, text = run_cli(
        ["morse", "--lemma", "both", "-i", str(graph_files["k3"]), "-k", "1", "--certificate", str(cert)],
        capsys,
    )
    assert code == 0
    assert "acyclic: True" in text
    lines = cert.read_text().splitlines()
    assert lines and all(line.startswith("x ") for line in lines)
    face, cofacet = lines[0].split()[1:]
    assert set(face.split(",")) < set(cofacet.split(","))


# SHA-256 of the `morse -k 1 --certificate` file per (graph, --lemma); any
# change to a matching or to the collapse order changes these bytes
MORSE_CERTIFICATE_SHA256 = {
    ("k3", "52"): "6c1324ba3e7beaee279c7cd1e9ce6da9feaeea516cc6e538f5d8a4f0aa3352dc",
    ("k3", "54"): "96cb10246f370655215817c52a6118a8d0190a5f0bd2d91f9078c4a170182175",
    ("k3", "both"): "342088fe7e7627cc0aabaf39a6ea063199c8e73c6424843b52afbc5037318337",
    ("c5", "52"): "2f84db6a17003ce1cd679e8345135a08536cbfc8f40b4b2bf53753d5cc388b37",
    ("c5", "54"): "c8fb41df6e4f0277eb4b91c1ac4d9ead999f98e7445e245ee30fca053b6cf792",
    ("c5", "both"): "f403210a6f1af2337744760d9db1fdffef42d16c10221db25f99cb3dc8d4ac1a",
    ("k4", "52"): "1244a59c0ba8524d8dc1f3bf91fe7dc76420a2cfc8eab19953de2ff14ba4c0ce",
    ("k4", "54"): "8481333f9f51b2ae3baa7445cf8ce7a98117ba3cdd8b822de6b882050c90be32",
    ("k4", "both"): "e0715553d0c71717a417f0a700e941766dfb7fd8f3352b710a7575d420609d50",
}


def test_morse_certificates_are_pinned(tmp_path, graph_files, capsys):
    for (name, lemma), digest in MORSE_CERTIFICATE_SHA256.items():
        cert = tmp_path / f"{name}-{lemma}.cert"
        code, _ = run_cli(
            ["morse", "--lemma", lemma, "-i", str(graph_files[name]), "-k", "1",
             "--certificate", str(cert)],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(cert.read_bytes()).hexdigest() == digest, (name, lemma)


def test_morse_builds_the_saturation_matching_only_for_its_certificate(
    tmp_path, graph_files, capsys, monkeypatch
):
    # Lemma 5.2 is certified on facets; its face-level steps are built only
    # when a certificate file asks for them
    calls = []
    real = omegalab.morse._saturation_partners
    monkeypatch.setattr(
        omegalab.morse, "_saturation_partners", lambda sc: calls.append(sc) or real(sc)
    )
    cert = tmp_path / "k3.cert"
    for lemma, extra, built in [
        ("54", ["--certificate", str(cert)], 0),
        ("both", [], 0),
        ("52", [], 0),
        ("52", ["--certificate", str(cert)], 1),
    ]:
        calls.clear()
        argv = ["morse", "--lemma", lemma, "-i", str(graph_files["k3"]), "-k", "1", *extra]
        code, text = run_cli(argv, capsys)
        assert code == 0 and "acyclic: True" in text
        assert len(calls) == built, lemma
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == MORSE_CERTIFICATE_SHA256["k3", "52"]


def test_morse_step_counts_match_pipeline(graph_files, capsys):
    for name, g in (("k3", clique(3)), ("c5", cycle_graph(5))):
        code, text = run_cli(["morse", "-i", str(graph_files[name]), "-k", "1"], capsys)
        assert code == 0
        saturation = re.findall(r"^saturation collapse: (\d+) steps$", text, re.M)
        phases = re.findall(r"^phase \d collapse: (\d+) steps$", text, re.M)
        assert {
            "saturation": int(saturation[0]),
            "phases": [int(n) for n in phases],
        } == pipeline(g, 1)["collapse_steps"]


def test_approx_report(tmp_path, graph_files, capsys):
    rep = tmp_path / "ap.json"
    code, text = run_cli(
        ["approx", "-i", str(graph_files["c5"]), "-k", "2", "--report", str(rep)], capsys
    )
    assert code == 0 and "ok" in text
    payload = json.loads(rep.read_text())
    assert payload["within_bound"] and payload["carrier_ok"]
    assert payload["bound"] == "6"
    assert (
        hashlib.sha256(rep.read_bytes()).hexdigest()
        == "b16ef75a01bb3980df6dcb9b8f6a54c41f58d991867a13b31ed099da487167c7"
    )


def test_approx_edgeless_graph_passes_vacuously(tmp_path, capsys):
    # no facets: every facet is within the zero bound, vacuously
    edgeless = tmp_path / "e.graph"
    edgeless.write_text("p 2 0\n")
    rep = tmp_path / "e.json"
    code, text = run_cli(["approx", "-i", str(edgeless), "-k", "1", "--report", str(rep)], capsys)
    assert code == 0
    assert text == "max diameter^2 0 vs bound^2 0: ok; carrier: ok\n"
    assert rep.read_text() == (
        "{\n"
        '  "bound": "0",\n'
        '  "bound_sq": "0",\n'
        '  "carrier_ok": true,\n'
        '  "facets": [],\n'
        '  "graph": {\n'
        '    "m": 0,\n'
        '    "max_degree": 0,\n'
        '    "n": 2\n'
        "  },\n"
        '  "half_index": 1,\n'
        '  "max_diameter_sq": "0",\n'
        '  "within_bound": true\n'
        "}\n"
    )


def test_verify_exit_codes(tmp_path, capsys):
    code, text = run_cli(["verify", "betti"], capsys)
    assert code == 0 and "suite betti: pass" in text
    # a starved budget must exit 2 (incomplete), not report a false negative
    code, text = run_cli(["verify", "morse", "--simplex-budget", "10"], capsys)
    assert code == 2 and "incomplete" in text
    # the vertex budget bounds the adjoint the approximation map is built on
    code, text = run_cli(["verify", "approx", "--vertex-budget", "1"], capsys)
    assert code == 2 and "incomplete" in text


def test_a_check_that_raises_fails_and_a_budget_stop_is_incomplete(monkeypatch):
    def raising(exc):
        def check():
            raise exc

        return lambda r, budgets: r.run("probe", "a claim", "no input", True, check)

    monkeypatch.setitem(verify._SUITE_FNS, "betti", raising(ContractError("edge (0, 1) lost")))
    report = run_suite("betti")
    assert [(c["status"], c["actual"]) for c in report["checks"]] == [
        ("fail", "ContractError: edge (0, 1) lost")
    ]
    assert not report["passed"] and not report["incomplete"] and exit_code(report) == 1
    monkeypatch.setitem(verify._SUITE_FNS, "betti", raising(ResourceError("node budget 1 exhausted")))
    report = run_suite("betti")
    assert [(c["status"], c["actual"]) for c in report["checks"]] == [
        ("resource", "resource error: node budget 1 exhausted")
    ]
    assert not report["passed"] and report["incomplete"] and exit_code(report) == 2
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")


def test_a_starved_vertex_budget_marks_checks_and_reports_them_all():
    # an adjoint built outside its checks once ended the whole run, with no report
    passing = {c["id"] for c in run_suite("all")["checks"] if c["status"] == "pass"}
    report = run_suite("all", Budgets(vertex_budget=20))
    statuses = {c["id"]: c["status"] for c in report["checks"]}
    assert len(report["checks"]) == 234 and exit_code(report) == 2
    assert {statuses[i] for i in passing} == {"pass", "resource"}


def test_the_vertex_budget_bounds_subdivisions_and_products():
    # gamma_5(Petersen) has 70 vertices and K3 x K3 has 9; both were built at
    # the default budget whatever budget the suite was given
    def statuses(suite, vertex_budget):
        report = run_suite(suite, Budgets(vertex_budget=vertex_budget))
        return {c["id"]: c["status"] for c in report["checks"]}

    adjointness = statuses("adjointness", 20)
    assert adjointness["adjointness/k5/Petersen->K2/subdivision-power"] == "resource"
    assert adjointness["adjointness/k5/K2->K2/subdivision-power"] == "pass"
    assert statuses("kunneth", 5) == {
        "kunneth/K2xK2": "pass",
        "kunneth/K3xK3": "resource",
        "kunneth/K3xC5": "resource",
    }


BUDGET_FLAGS = {
    "hom": ("node_budget",),
    "chromatic": ("node_budget",),
    "homology": ("simplex_budget",),
    "morse": ("vertex_budget", "simplex_budget"),
    "verify": ("vertex_budget", "simplex_budget", "node_budget"),
}


def test_each_budget_option_defaults_to_the_record():
    options = {
        name: [p for p in command.params if p.name.endswith("_budget")]
        for name, command in cli.commands.items()
    }
    assert {n: tuple(p.name for p in ps) for n, ps in options.items() if ps} == BUDGET_FLAGS
    assert all(p.default == getattr(DEFAULT_BUDGETS, p.name) for ps in options.values() for p in ps)


@pytest.mark.parametrize("field", ["vertex_budget", "simplex_budget", "node_budget"])
def test_a_nonpositive_budget_is_a_parameter_error(field):
    with pytest.raises(ParameterError, match=field.replace("_", " ")):
        Budgets(**{field: 0})


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, field", [(c, f) for c, fields in BUDGET_FLAGS.items() for f in fields]
)
def test_a_nonpositive_budget_flag_is_a_usage_error(tmp_path, graph_files, capsys, command, field, value):
    complex_file = tmp_path / "k3.complex"
    complex_file.write_text(format_complex(build_box(clique(3))))
    k3 = str(graph_files["k3"])
    argv = {
        "hom": ["hom", "-g", k3, "-h", k3],
        "chromatic": ["chromatic", "-i", k3],
        "homology": ["homology", "-i", str(complex_file)],
        "morse": ["morse", "-i", k3, "-k", "1"],
        "verify": ["verify", "betti"],
    }[command]
    assert run_cli(argv, capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--" + field.replace("_", "-"), value])
    assert exc.value.code == 64 and capsys.readouterr().err.startswith("usage error:")


def test_verify_squarefree_reports_known_defect(capsys):
    # the P4 embedding-injectivity check cannot pass (see README, "One
    # acceptance sub-check fails by design"); the suite must fail
    # deterministically on exactly that check
    code, text = run_cli(["verify", "squarefree"], capsys)
    assert code == 1
    failing = [line for line in text.splitlines() if line.startswith("FAIL")]
    assert failing == ["FAIL     squarefree/P4/embedding-injective"]


def test_verify_report_is_deterministic(tmp_path, capsys):
    a = tmp_path / "r1.json"
    b = tmp_path / "r2.json"
    run_cli(["verify", "kunneth", "-o", str(a)], capsys)
    run_cli(["verify", "kunneth", "-o", str(b)], capsys)
    from omegalab.verify import canonical_json, strip_timings

    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    assert canonical_json(strip_timings(ra)) == canonical_json(strip_timings(rb))
    assert ra["fingerprint"] == rb["fingerprint"]


def test_usage_error_exits_64(capsys):
    code, _ = run_cli(["no-such-command"], capsys)
    assert code == 64
    code, _ = run_cli(["hom", "-g", "/nonexistent", "-h", "/nonexistent"], capsys)
    assert code == 64


def test_parse_error_exits_one_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 2 1\ne 0 9\n")
    code = 0
    try:
        main(["show", "-i", str(bad)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1 and "line 2" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("\n\nx 1\n", "line 3: file is neither a graph (p line) nor a complex (c line)"),
        ("p 2 1\ne 0 1\nl 0 x\nl 1 x\n", "line 4: label 'x' already used"),
    ],
    ids=["junk-after-blank-lines", "repeated-label"],
)
def test_show_names_the_line_at_fault(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code = 0
    try:
        main(["show", "-i", str(bad)])
    except SystemExit as exc:
        code = exc.code
    assert code == 1 and capsys.readouterr().err == f"parse error: {message}\n"


def _refused(tmp_path, capsys, text, reader):
    """Exit code and stderr of ``show`` on ``text``, or of ``reader`` (a
    command that reads only that kind) when the file does not open with its
    kind line and ``show`` would refuse it on that alone."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    command = "show" if text.startswith(("p", "c")) else reader
    code = 0
    try:
        main([command, "-i", str(path)])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


GRAPH_REFUSALS = [
    ("p 2 0\np 2 0\n", "line 2: duplicate p line"),
    ("p 2\n", "line 1: p line must be 'p <n> <m>'"),
    ("p x 0\n", "line 1: p line fields must be integers"),
    ("p -1 0\n", "line 1: p line fields must be nonnegative"),
    (f"p {(n := DEFAULT_BUDGETS.vertex_budget) + 1} 0\n", f"line 1: {n + 1} vertices exceed the vertex budget {n}"),
    ("e 0 1\n", "line 1: e line before p line"),
    ("p 2 1\ne 0\n", "line 2: e line must be 'e <u> <v>'"),
    ("p 2 1\ne 0 y\n", "line 2: e line fields must be integers"),
    ("p 2 1\ne 0 2\n", "line 2: edge (0, 2) out of range"),
    ("l 0 a\n", "line 1: l line before p line"),
    ("p 2 0\nl 0\n", "line 2: l line must be 'l <v> <label>'"),
    ("p 2 0\nl z a\n", "line 2: l line vertex must be an integer"),
    ("p 2 0\nl 2 a\n", "line 2: label vertex 2 out of range"),
    ("p 2 0\nl 0 a\nl 0 b\n", "line 3: duplicate label for vertex 0"),
    ("p 2 0\nl 0 a\nl 1 a\n", "line 3: label 'a' already used"),
    ("p 2 0\nq 1\n", "line 2: unknown line kind 'q'"),
    ("", "missing p line"),
    ("p 2 1\n", "p line announced 1 edges, found 0"),
    ("p 2 0\nl 0 a\n", "labels must be total when present"),
]

COMPLEX_REFUSALS = [
    ("c 2\nc 2\n", "line 2: duplicate c line"),
    ("c 2 2\n", "line 1: c line must be 'c <num_vertices>'"),
    ("c x\n", "line 1: vertex count must be an integer"),
    ("c 3\n", "line 1: vertex count must be even and nonnegative"),
    ("n 0 0 +\n", "line 1: n line before c line"),
    ("c 2\nn 0 0\n", "line 2: n line must be 'n <id> <graph-vertex> <+|->'"),
    ("c 2\nn 0 x +\n", "line 2: n line fields must be integers"),
    ("c 2\nn 2 0 +\n", "line 2: token id 2 out of range"),
    ("c 2\nn 0 0 +\nn 0 0 -\n", "line 3: duplicate token id 0"),
    ("f 0\n", "line 1: f line before c line"),
    ("c 2\nf x\n", "line 2: facet ids must be integers"),
    ("c 2\nf\n", "line 2: facet line must list at least one token"),
    ("c 2\nf 0 2\n", "line 2: facet token id out of range"),
    ("c 2\nx\n", "line 2: unknown line kind 'x'"),
    ("", "missing c line"),
    ("c 2\nn 0 0 +\n", "expected 2 n lines, found 1"),
    ("c 2\nn 0 0 +\nn 1 1 -\n", "tokens do not pair into an involution"),
    ("c 4\nn 0 0 +\nn 1 0 +\nn 2 0 -\nn 3 0 -\n", "duplicate (graph-vertex, shore) token"),
]


@pytest.mark.parametrize("text, message", GRAPH_REFUSALS, ids=[m for _, m in GRAPH_REFUSALS])
def test_every_graph_refusal_is_a_parse_error(tmp_path, capsys, text, message):
    code, err = _refused(tmp_path, capsys, text, "chromatic")
    assert (code, err) == (1, f"parse error: {message}\n")


@pytest.mark.parametrize("text, message", COMPLEX_REFUSALS, ids=[m for _, m in COMPLEX_REFUSALS])
def test_every_complex_refusal_is_a_parse_error(tmp_path, capsys, text, message):
    code, err = _refused(tmp_path, capsys, text, "homology")
    assert (code, err) == (1, f"parse error: {message}\n")


def _respaced(rng, lines):
    """``lines`` behind up to three blank lines, each with a tab or a run of
    spaces around and between its fields (a label keeps its own spaces)."""
    gap = ["\t", "  ", " \t "]
    out = [rng.choice(["", " ", "\t"]) for _ in range(rng.randint(0, 3))]
    for line in lines:
        fields = line.split(" ", 2) if line.startswith("l ") else line.split(" ")
        out.append(rng.choice(["", "\t"]) + "".join(f + rng.choice(gap) for f in fields))
    return out


def test_whitespace_variants_parse_alike_everywhere():
    # the parsers and the kind detection behind show and convert read one
    # record per non-blank line and split fields on any run of whitespace
    def detected(text):
        return _detect_and_parse(text)[1]

    rng = random.Random(2303)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), 0.4)
        labelled = g.with_labels([f"v {u}" for u in range(g.n)])
        w = Homomorphism(g, clique(g.n), tuple(rng.sample(range(g.n), g.n)))
        cases = [
            (labelled, format_graph, [parse_graph, detected]),
            (random_graph(rng, rng.randint(1, 7), 0.4, 0.2), format_graph, [parse_graph, detected]),
            (random_free_complex(rng, 5), format_complex, [parse_complex, detected]),
            (w, format_witness, [lambda t: parse_witness(t, w.source, w.target)]),
        ]
        for obj, fmt, parsers in cases:
            lines = fmt(obj).splitlines()
            variant = "\r\n".join(_respaced(rng, lines)) + "\r\n"
            for read in parsers:
                assert fmt(read(variant)) == fmt(obj), variant
            # field 1 of one record is not an integer: refused at its line
            r = rng.randrange(len(lines))
            fields = lines[r].split(" ")
            fields[1] = "x"
            bad = _respaced(rng, lines[:r] + [" ".join(fields)] + lines[r + 1 :])
            lineno = [n for n, line in enumerate(bad, 1) if line.strip()][r]
            for read in parsers:
                with pytest.raises(ParseError) as err:
                    read("\r\n".join(bad))
                assert err.value.line == lineno, bad


@pytest.mark.parametrize("case", ["missing-output-dir", "input-is-a-directory"])
def test_file_errors_exit_one_without_traceback(tmp_path, graph_files, capsys, case):
    if case == "missing-output-dir":
        argv = ["box", "-i", str(graph_files["k3"]), "-o", str(tmp_path / "missing" / "x.cx")]
    else:
        argv = ["show", "-i", str(tmp_path)]
    code = 0
    try:
        main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["functor", "omega", "-k", "2001", "-i", "{k2}", "-o", "{out}"],
        ["morse", "-i", "{k2}", "-k", "1000"],
        ["approx", "-i", "{k2}", "-k", "1000"],
        ["functor", "pi", "-k", "1000000001", "-i", "{c5}", "-o", "{out}"],
    ],
    ids=["omega-2001", "morse-1000", "approx-1000", "pi-1000000001"],
)
def test_large_index_flags_finish(tmp_path, graph_files, capsys, argv):
    k2 = tmp_path / "k2.graph"
    k2.write_text(format_graph(clique(2)))
    files = {"k2": k2, "c5": graph_files["c5"], "out": tmp_path / "out.graph"}
    start = time.perf_counter()
    code, _ = run_cli([a.format(**files) for a in argv], capsys)
    assert code == 0 and time.perf_counter() - start < 2.0


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "omegalab.cli", "verify", "approx"],
        capture_output=True,
        text=True,
        timeout=300,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "suite approx: pass" in proc.stdout


@pytest.mark.parametrize(
    "content",
    [b"p 3000000 0\n", b"p " + b"1" + b"0" * 30 + b" 0\n", b"p 1 0\nl 0 \xff\xfe\n"],
    ids=["three-million-vertices", "ten-to-the-thirty-vertices", "not-utf8"],
)
def test_hostile_input_is_a_fast_parse_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(content)
    start = time.perf_counter()
    code = 0
    try:
        main(["show", "-i", str(bad)])
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("parse error") and "Traceback" not in err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["show", "-i", "{path}"], 1, "parse error: "),
        (["functor", "gamma", "-k", "1000001", "-i", "{k2}", "-o", "{out}"], 2, "resource error: "),
    ],
    ids=["path-200000-row-bits", "gamma-1000001-vertices"],
)
def test_row_bits_and_subdivision_are_bounded_before_allocating(tmp_path, capsys, argv, code, prefix):
    # the path's rows would take about 2*10^10 bits, and the subdivision
    # 10^6 + 2 vertices whose rows would take about 62 GB
    files = {"path": tmp_path / "path.graph", "k2": tmp_path / "k2.graph", "out": tmp_path / "out.graph"}
    files["path"].write_text("p 200000 199999\n" + "".join(f"e {i} {i + 1}\n" for i in range(199999)))
    files["k2"].write_text(format_graph(clique(2)))
    start = time.perf_counter()
    got = 0
    try:
        main([a.format(**files) for a in argv])
    except SystemExit as exc:
        got = exc.code
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert got == code and err.startswith(prefix) and "Traceback" not in err
    assert elapsed < 2.0 and not files["out"].exists()


def test_complex_with_one_facet_over_the_budget_stops_at_once(tmp_path, capsys):
    # one 25-token facet has 2^25 - 1 faces, over the default 10^7 budget;
    # the budget used to stop the enumeration only after minutes
    path = tmp_path / "wide.cx"
    path.write_text(
        "c 60\n"
        + "".join(f"n {t} {t % 30} {'+-'[t // 30]}\n" for t in range(60))
        + "f " + " ".join(map(str, range(25))) + "\n"
    )
    start = time.perf_counter()
    code = 0
    try:
        main(["homology", "-i", str(path)])
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and err == "resource error: simplex budget 10000000 exceeded\n"
    assert elapsed < 2.0


_NUMBER = st.one_of(st.integers(-2, 9), st.sampled_from(["x", "1e3", "0x1", "99999999999", "-0", ""]))
_WORD = st.one_of(_NUMBER.map(str), st.sampled_from(["+", "-", "p", "c", "n", "e", "f", "l"]), st.text(max_size=4))


def _sometimes(draw, value, other):
    """``value`` nine times in ten, else a draw from ``other``."""
    return value if draw(st.integers(0, 9)) else draw(other)


@st.composite
def _input_text(draw):
    """Graph-like or complex-like text: well-formed lines with fields that
    may be out of range, miscounted or not numbers, plus junk lines."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 6))
        edges = [
            f"e {_sometimes(draw, u, _NUMBER)} {_sometimes(draw, v, _NUMBER)}"
            for u, v in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))), max_size=8))
        ]
        lines = [f"p {_sometimes(draw, n, _NUMBER)} {_sometimes(draw, len(edges), _NUMBER)}"] + edges
        if draw(st.integers(0, 3)) == 0:
            lines += [f"l {_sometimes(draw, v, _NUMBER)} {draw(st.text(max_size=5))}" for v in range(n)]
    else:
        h = draw(st.integers(0, 4))
        lines = [f"c {_sometimes(draw, 2 * h, _NUMBER)}"]
        for t in range(2 * h):
            shore = _sometimes(draw, "+-"[t // h], st.sampled_from(["+", "-", "*"]))
            lines.append(f"n {t} {_sometimes(draw, t % h, _NUMBER)} {shore}")
        for _ in range(draw(st.integers(0, 5))):
            ids = draw(st.lists(st.integers(0, max(2 * h - 1, 0)), min_size=1, max_size=6, unique=True))
            lines.append("f " + " ".join(_sometimes(draw, str(t), _WORD) for t in sorted(ids)))
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), " ".join(draw(st.lists(_WORD, max_size=4))))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    return "\n".join(line.replace(" ", sep) for line in lines) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_input_text())
def test_parsers_never_crash(tmp_path_factory, text):
    # every generated file ends in a documented exit code, never a traceback
    path = tmp_path_factory.getbasetemp() / "fuzz-input.txt"
    path.write_text(text, encoding="utf-8")
    for command in ("show", "homology"):
        err = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                main([command, "-i", str(path)])
            except SystemExit as exc:
                code = exc.code or 0
        assert code in (0, 1, 2), (command, text, err.getvalue())
        assert "Traceback" not in err.getvalue()
