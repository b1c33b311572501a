from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import manna
from manna.certificate import Certificate, instance_to_dict
from manna.cli import main
from manna.solver import explain, generate_instance

E1_DATA = {"agents": 2, "items": 2, "values": [[4, -2], [3, -1]]}

# Full explain output at the certified w* of a 3-agent goods instance:
# one tie item and two tie-forest components.
GOODS_EXPLAIN = "\n".join([
    "weight: certified common point",
    "w = (178596991327449234092737027320412/472367886568244103998141972271585, "
    "142355192551930513906386617082967/472367886568244103998141972271585, "
    "151415702688864355999018327868206/472367886568244103998141972271585)",
    "eta = 1073741824/193269183255",
    "prices: 1=32217216043013538503152535709335/10497300140263099073843305644032, "
    "2=8557779317996118375971064126623/2624325035065774768460826411008, "
    "3=24163126365920287849408470996445/7872975105197324305382479233024, "
    "aux=1406494144413682891526/7332279444855939881301",
    "edges: (a1,3), (a1,aux), (a2,1), (a2,3), (a3,2)",
    "forced bundle a1: {aux}",
    "forced bundle a2: {1}",
    "forced bundle a3: {2}",
    "tie items: {3}",
    "component 0: a1 a2 1 3 aux",
    "component 1: a3 2",
    "optimal face size: 2",
    "tau = 8557779317996118375971064126623/2624325035065774768460826411008",
    "p_plus a1 = 8557779317996118375971064126623/2624325035065774768460826411008",
    "p_plus a2 = 193304153592721766907091491113785/31491900420789297221529916932096",
    "p_plus a3 = 8557779317996118375971064126623/2624325035065774768460826411008",
    "membership: a1: yes, a2: yes, a3: yes",
    "augmenting trace (0 events):",
    "",
])

# Full explain output of E1_DATA at the supplied weight (1/2, 1/2), seed 7.
E1_HALF_EXPLAIN = "\n".join([
    "weight: supplied",
    "w = (1/2, 1/2)",
    "eta = 134217728/4294557239",
    "prices: 1=4562992695/2147483648, 2=-19646851441594452615/36889965784610111488, "
    "aux=4562992695/17178228956",
    "edges: (a1,1), (a1,aux), (a2,2), (a2,aux)",
    "forced bundle a1: {1}",
    "forced bundle a2: {2}",
    "tie items: {aux}",
    "component 0: a1 a2 1 2 aux",
    "optimal face size: 2",
    "tau = 4562992695/2147483648",
    "p_plus a1 = 22045771359430356945/9222491446152527872",
    "p_plus a2 = -9847899243138501255/36889965784610111488",
    "membership: a1: yes, a2: no",
    "",
])


@pytest.fixture
def e1_file(tmp_path) -> str:
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(E1_DATA))
    return str(path)


def run(*argv) -> int:
    return main(list(argv))


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "--seed", "1", "-n", "2", "-m", "3", "--out", str(a)) == 0
        assert run("gen", "--seed", "1", "-n", "2", "-m", "3", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_chores_profile_all_negative(self, tmp_path, capsys):
        assert run("gen", "--seed", "3", "-n", "2", "-m", "4", "--profile", "chores") == 0
        data = json.loads(capsys.readouterr().out)
        assert all(v < 0 for row in data["values"] for v in row)

    def test_zero_mixed_profile_shape(self, tmp_path, capsys):
        assert run("gen", "--seed", "3", "-n", "3", "-m", "4", "--profile", "zero-mixed") == 0
        data = json.loads(capsys.readouterr().out)
        for j in range(4):
            col = [data["values"][i][j] for i in range(3)]
            assert any(v == 0 for v in col) and any(v > 0 for v in col)
            assert all(v >= 0 for v in col)

    def test_bad_dimensions(self):
        assert run("gen", "--seed", "1", "-n", "1", "-m", "3") == 2


class TestSolveVerifyRoundTrip:
    def test_round_trip(self, e1_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert (
            run("solve", e1_file, "--seed", "5", "--out", str(cert_path)) == 0
        )
        assert "verification: pass" in capsys.readouterr().out
        assert run("verify", e1_file, str(cert_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] is True

    def test_modes_both_pass_and_may_differ(self, e1_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("solve", e1_file, "--seed", "5", "--mode", "enumerate", "--out", str(a)) == 0
        assert run("solve", e1_file, "--seed", "5", "--mode", "augment", "--out", str(b)) == 0
        ca = Certificate.from_json(a.read_text())
        cb = Certificate.from_json(b.read_text())
        assert ca.w_star == cb.w_star

    def test_determinism_same_bytes(self, e1_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("solve", e1_file, "--seed", "5", "--out", str(a)) == 0
        assert run("solve", e1_file, "--seed", "5", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_zero_instance_trivial_pass(self, tmp_path):
        inst = tmp_path / "zero.json"
        inst.write_text(json.dumps({"agents": 2, "items": 2, "values": [[0, 0], [0, 0]]}))
        cert_path = tmp_path / "cert.json"
        assert run("solve", str(inst), "--out", str(cert_path)) == 0
        cert = Certificate.from_json(cert_path.read_text())
        assert cert.trivial

    def test_all_witnesses_flag(self, e1_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert run("solve", e1_file, "--all-witnesses", "--out", str(cert_path)) == 0
        assert "fair+efficient allocations:" in capsys.readouterr().out


class TestVerifyFailures:
    def test_tampered_allocation(self, e1_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run("solve", e1_file, "--seed", "5", "--out", str(cert_path))
        capsys.readouterr()
        data = json.loads(cert_path.read_text())
        data["allocation_original"] = list(reversed(data["allocation_original"]))
        cert_path.write_text(json.dumps(data))
        assert run("verify", e1_file, str(cert_path)) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failures"]

    def test_digest_mismatch(self, e1_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run("solve", e1_file, "--seed", "5", "--out", str(cert_path))
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"agents": 2, "items": 2, "values": [[4, -2], [3, -2]]}))
        assert run("verify", str(other), str(cert_path)) == 1
        assert "digest mismatch" in capsys.readouterr().out


class TestVerifyMalformedContent:
    """Malformed allocations and swap sets fail verification; they are not input errors."""

    @pytest.fixture
    def three_agent_files(self, tmp_path, capsys) -> tuple[str, dict, Path]:
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance_to_dict(generate_instance(3, 3, 3, profile="goods"))))
        cert_path = tmp_path / "cert.json"
        assert run("solve", str(inst_path), "--seed", "1", "--out", str(cert_path)) == 0
        capsys.readouterr()
        return str(inst_path), json.loads(cert_path.read_text()), cert_path

    @pytest.mark.parametrize(
        "mutate, clause",
        [
            (lambda d: d.update(allocation_perturbed=d["allocation_perturbed"][:1]), "ief1-on-perturbed"),
            (lambda d: d["allocation_perturbed"][0].append(99), "ief1-on-perturbed"),
            (lambda d: d.update(swaps_original=[[99]] + d["swaps_original"][1:]), "ief1-on-original"),
            (
                lambda d: d.update(perturbed_values=[["0"] * len(row) for row in d["perturbed_values"]]),
                "perturbation-bounds",
            ),
        ],
        ids=["one-bundle-for-three-agents", "item-99-in-bundle", "swap-item-99", "all-zero-perturbed-values"],
    )
    def test_fails_with_clause(self, three_agent_files, capsys, mutate, clause):
        inst_path, data, cert_path = three_agent_files
        mutate(data)
        cert_path.write_text(json.dumps(data))
        assert run("verify", inst_path, str(cert_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert clause in report["failures"] and report["overall"] is False


class TestExitCodes:
    def test_missing_file(self):
        assert run("solve", "/nonexistent/path.json") == 2

    def test_invalid_instance(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"agents": 1, "items": 2, "values": [[1, 2]]}))
        assert run("solve", str(bad)) == 2

    def test_scalar_value_matrix(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"agents": 2, "items": 2, "values": 5}))
        assert run("solve", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_bad_bundle_entry_in_certificate(self, e1_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run("solve", e1_file, "--seed", "5", "--out", str(cert_path))
        data = json.loads(cert_path.read_text())
        data["allocation_original"][0] = ["x"]
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("verify", e1_file, str(cert_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("perturbed_values", []),
            ("w_star", 5),
            ("allocation_original", 5),
            ("seed", "x"),
            ("lambda", "x"),
            ("w_star", ["x", "1"]),
            ("eta", "1/0"),
        ],
        ids=[
            "empty-perturbed-values",
            "scalar-w-star",
            "scalar-allocation",
            "string-seed",
            "unparsable-lambda",
            "unparsable-w-star-entry",
            "zero-denominator-eta",
        ],
    )
    def test_mistyped_certificate_field(self, e1_file, tmp_path, capsys, field, value):
        cert_path = tmp_path / "cert.json"
        run("solve", e1_file, "--seed", "5", "--out", str(cert_path))
        data = json.loads(cert_path.read_text())
        data[field] = value
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("verify", e1_file, str(cert_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification error:") and err.count("\n") == 1
        assert repr(field) in err

    @pytest.mark.parametrize(
        "option, value",
        [("--max-denominator", "0"), ("--max-denominator", "-3"), ("--guard", "-1")],
    )
    def test_out_of_range_solve_option(self, e1_file, option, value):
        # a separate process with a timeout, so that a loop that never ends fails the test
        env = dict(os.environ)
        src = str(Path(manna.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        done = subprocess.run(
            [sys.executable, "-m", "manna.cli", "solve", e1_file, option, value],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("input error:") and done.stderr.count("\n") == 1

    def test_negative_verify_guard(self, e1_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        run("solve", e1_file, "--out", str(cert_path))
        capsys.readouterr()
        assert run("verify", e1_file, str(cert_path), "--guard", "-1") == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_lambda_guard(self, tmp_path):
        # unit fractions with pairwise-coprime denominators have 2^40 distinct
        # subset sums; a separate process with a timeout, so a hang fails the test
        primes = [q for q in range(2, 200) if all(q % d for d in range(2, q))][:40]
        wide = tmp_path / "wide.json"
        wide.write_text(
            json.dumps({"agents": 2, "items": 40, "values": [[f"1/{q}" for q in primes], [1] * 40]})
        )
        env = dict(os.environ)
        src = str(Path(manna.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        done = subprocess.run(
            [sys.executable, "-m", "manna.cli", "solve", str(wide), "--guard", "100000"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert done.returncode == 3
        assert done.stderr.startswith("size guard:") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "explain"])
    def test_four_agents_are_an_input_error(self, tmp_path, capsys, command):
        inst = tmp_path / "four.json"
        inst.write_text(json.dumps({"agents": 4, "items": 2, "values": [[1, 2], [3, 1], [2, 2], [1, 4]]}))
        assert run(command, str(inst)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
        assert "at most 3 agents" in err

    def test_four_agents_all_zero_still_solve(self, tmp_path, capsys):
        inst = tmp_path / "zero.json"
        inst.write_text(json.dumps({"agents": 4, "items": 2, "values": [[0, 0]] * 4}))
        assert run("solve", str(inst)) == 0
        cert = Certificate.from_json(capsys.readouterr().out)
        assert cert.trivial and cert.strategy == "trivial"


class TestExplain:
    def test_supplied_weight_dump(self, e1_file, capsys):
        assert run("explain", e1_file, "--seed", "7", "--w", "1/2,1/2") == 0
        out = capsys.readouterr().out
        for marker in ("prices:", "tie items:", "optimal face size:", "tau =", "membership:"):
            assert marker in out

    def test_solved_weight_dump_with_trace(self, e1_file, capsys):
        assert run("explain", e1_file, "--seed", "7", "--trace") == 0
        out = capsys.readouterr().out
        assert "certified common point" in out
        assert "augmenting trace" in out

    def test_boundary_weight_note(self, e1_file, capsys):
        assert run("explain", e1_file, "--seed", "7", "--w", "1,0") == 0
        assert "boundary weight" in capsys.readouterr().out

    def test_pinned_text_at_certified_point(self):
        text = explain(generate_instance(3, 3, 3, profile="goods"), seed=1, with_trace=True)
        assert text == GOODS_EXPLAIN

    def test_pinned_text_at_supplied_weight(self, e1_file, capsys):
        assert run("explain", e1_file, "--seed", "7", "--w", "1/2,1/2") == 0
        assert capsys.readouterr().out == E1_HALF_EXPLAIN
