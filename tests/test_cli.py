import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shrubs
from shrubs import (
    SignedShrub,
    Shrub,
    fraction_of_shrub,
    format_fraction,
    gamma,
    graft_generator,
    pair_generator,
    trivial_shrub,
)
from shrubs.cli import main


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(graft_generator(2, 1).to_json())
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*args):
    """The CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    src = str(Path(shrubs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "shrubs.cli", *args], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCli:
    def test_validate_ok(self, capsys, edge_file):
        code, out, err = run(capsys, "validate", edge_file)
        assert code == 0 and out.strip() == "valid"

    def test_validate_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": [1, 2], "height": {"1": 0, "2": 2}, "edges": [[1, 2]]}))
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "HeightJump" in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate"])  # missing --n
        assert info.value.code == 2

    def test_enumerate_fig_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--connected", "--up-to-iso")
        assert code == 0 and out.strip() == "30"

    def test_enumerate_oracles_agree(self, capsys):
        _, brute, _ = run(capsys, "enumerate", "--n", "4")
        _, gen, _ = run(capsys, "enumerate", "--n", "4", "--oracle", "generators")
        assert brute == gen == "195\n"

    def test_fraction_matches_library(self, capsys, edge_file):
        code, out, _ = run(capsys, "fraction", edge_file)
        assert code == 0
        assert out.strip() == format_fraction(fraction_of_shrub(graft_generator(2, 1)))
        assert out.strip() == "1/((u1)(u1+u2))"

    def test_zinbiel(self, capsys, edge_file):
        code, out, _ = run(capsys, "zinbiel", edge_file)
        assert out.strip() == gamma(graft_generator(2, 1)).text() == "[21]"

    def test_compose(self, capsys, tmp_path):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(trivial_shrub(9).to_json())
        q.write_text(pair_generator(1, 2).to_json())
        code, out, _ = run(capsys, "compose", str(p), "9", str(q))
        assert code == 0
        assert Shrub.from_json(out) == pair_generator(1, 2)

    def test_word_roundtrip(self, capsys, tmp_path, edge_file):
        code, word, _ = run(capsys, "decompose", edge_file)
        wfile = tmp_path / "word.json"
        wfile.write_text(word)
        code, out, _ = run(capsys, "evaluate", str(wfile))
        assert Shrub.from_json(out) == graft_generator(2, 1)

    def test_reconstruct_roundtrip(self, capsys, tmp_path, edge_file):
        _, text, _ = run(capsys, "fraction", edge_file)
        ffile = tmp_path / "frac.txt"
        ffile.write_text(text)
        code, out, _ = run(capsys, "reconstruct", str(ffile))
        assert code == 0
        assert Shrub.from_json(out) == graft_generator(2, 1)

    def test_reconstruct_error_names_the_failure(self, capsys, tmp_path):
        ffile = tmp_path / "frac.txt"
        ffile.write_text("-1/(u1)")
        code, out, err = run(capsys, "reconstruct", str(ffile))
        assert code == 1 and "NotInImage" in err

    def test_act(self, capsys, tmp_path):
        sfile = tmp_path / "signed.json"
        sfile.write_text(json.dumps(SignedShrub(1, pair_generator(1, 2)).to_json_dict()))
        code, out, _ = run(capsys, "act", "1,0,2", str(sfile))
        data = json.loads(out)
        assert code == 0 and data["sign"] == -1
        assert Shrub.from_json_dict(data["shrub"]) == graft_generator(1, 2)

    def test_orbit(self, capsys, tmp_path):
        sfile = tmp_path / "signed.json"
        sfile.write_text(json.dumps(SignedShrub(1, pair_generator(1, 2)).to_json_dict()))
        code, out, _ = run(capsys, "orbit", str(sfile))
        data = json.loads(out)
        assert code == 0
        assert len(data["orbit"]) == 3
        assert data["invariant"] == [[], [1, 1]]

    def test_dot(self, capsys, edge_file):
        code, out, _ = run(capsys, "dot", edge_file)
        assert code == 0 and out.startswith("digraph")

    def test_check_suite(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "series-parallel", "--max-n", "4")
        assert code == 0
        assert out.startswith("PASS series-parallel/")

    def test_check_unknown_suite(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "nope")
        assert code == 1 and "unknown suite" in err

    def test_deterministic_output(self, capsys, edge_file):
        _, first, _ = run(capsys, "decompose", edge_file)
        _, second, _ = run(capsys, "decompose", edge_file)
        assert first == second


class TestMalformedInput:
    """Malformed input exits 1 with one line on stderr and no traceback."""

    def check_clean_failure(self, *args):
        code, out, err = run_process(*args)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_fraction_with_zero_scalar_denominator(self, tmp_path):
        ffile = tmp_path / "frac.txt"
        ffile.write_text("2/0*(u1)")
        err = self.check_clean_failure("reconstruct", str(ffile))
        assert err.startswith("ValueError:")

    def test_shrub_without_height(self, tmp_path):
        sfile = tmp_path / "shrub.json"
        sfile.write_text('{"vertices":[1]}')
        err = self.check_clean_failure("fraction", str(sfile))
        assert err.startswith("ValueError:") and "height" in err

    def test_shrub_as_top_level_list(self, tmp_path):
        sfile = tmp_path / "shrub.json"
        sfile.write_text("[1, 2]")
        err = self.check_clean_failure("fraction", str(sfile))
        assert err.startswith("ValueError:")
