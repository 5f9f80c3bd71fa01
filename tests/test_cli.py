import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import shrubs
from shrubs import (
    FactoredFraction,
    HeightJump,
    LinearForm,
    SignedShrub,
    Shrub,
    fraction_of_shrub,
    format_fraction,
    gamma,
    graft_generator,
    pair_generator,
    trivial_shrub,
)
from shrubs import checks, core, operad, reconstruction
from shrubs.cli import main
from shrubs.fraction_parser import _parse_general

from helpers import chain, stack_depth
from oracles import oracle_format_fraction, oracle_fraction, oracle_reconstruct


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(graft_generator(2, 1).to_json())
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*args):
    """A fresh interpreter that imports this checkout's ``shrubs``."""
    src = str(Path(shrubs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_process(*args):
    """The CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    proc = python("-m", "shrubs.cli", *args)
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
        # a missing --n, and the removed switches: enumerate --oracle and
        # --cap, reconstruct --cap
        for argv in (
            ["enumerate"],
            ["enumerate", "--n", "4", "--oracle", "generators"],
            ["enumerate", "--n", "4", "--cap", "7"],
            ["reconstruct", "frac.txt", "--cap", "6"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2

    def test_enumerate_fig_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--connected", "--up-to-iso")
        assert code == 0 and out.strip() == "30"

    def test_enumerate_count(self, capsys):
        assert run(capsys, "enumerate", "--n", "4") == (0, "195\n", "")

    def test_enumerate_past_the_ceiling(self, capsys, monkeypatch):
        # the ceiling is checked before any candidate is built
        monkeypatch.setattr(core, "_ordered_level_partitions", None)
        assert run(capsys, "enumerate", "--n", "7") == (1, "", "CapExceeded: n=7 exceeds cap 6\n")

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

    def test_reconstruct_any_spelling(self, capsys, tmp_path):
        # a spacing, sign and wrapping that format_fraction never writes
        canonical, spelled = tmp_path / "canonical.txt", tmp_path / "spelled.txt"
        canonical.write_text("1/((u1)(u1+u2))\n")
        spelled.write_text("+ 1/( (u1)(u1 + u2) )\n")
        out = run(capsys, "reconstruct", str(canonical))
        assert out == (0, graft_generator(2, 1).to_json() + "\n", "")
        assert run(capsys, "reconstruct", str(spelled)) == out

    def test_reconstruct_seven_labels(self, capsys, tmp_path):
        # reading is polynomial, so no size is refused
        ffile = tmp_path / "frac.txt"
        ffile.write_text(format_fraction(fraction_of_shrub(chain(7))))
        assert run(capsys, "reconstruct", str(ffile)) == (0, chain(7).to_json() + "\n", "")

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

    def test_orbit_cap(self, capsys, tmp_path):
        sfile = tmp_path / "signed.json"
        sfile.write_text(json.dumps(SignedShrub(1, chain(5)).to_json_dict()))
        assert run(capsys, "orbit", str(sfile), "--cap", "4") == (1, "", "CapExceeded: n=5 exceeds the orbit cap 4\n")
        for cap in ("9x", "True", "5.0"):
            with pytest.raises(SystemExit) as info:
                main(["orbit", str(sfile), "--cap", cap])
            assert info.value.code == 2
            assert "argument --cap: invalid int value" in capsys.readouterr().err

    def test_dot(self, capsys, edge_file):
        code, out, _ = run(capsys, "dot", edge_file)
        assert code == 0 and out.startswith("digraph")

    def test_check_suite(self, capsys, monkeypatch):
        # a property that fails or raises prints a FAIL row in registry order, the others
        # still run, and the exit is 1
        def raises(max_n, seed):
            raise HeightJump((1, 2), (0, 2))

        expected = [f"PASS {name}" for name in checks.PROPERTIES if name.startswith("core/")]
        expected[2] = "FAIL core/root-pairs"
        for check, detail in [
            (lambda max_n, seed: (False, f"broken at {max_n}"), "broken at 2"),
            (raises, "HeightJump: edge 1-2 joins non-adjacent levels (heights 0 and 2)"),
        ]:
            failing = checks.Property(check, lambda max_n: max_n)
            monkeypatch.setitem(checks.PROPERTIES, "core/root-pairs", failing)
            code, out, _ = run(capsys, "check", "--suite", "core", "--max-n", "2")
            rows = out.splitlines()
            assert code == 1 and [row.split(":")[0] for row in rows] == expected
            assert rows[2] == f"FAIL core/root-pairs: {detail}"

    @pytest.mark.parametrize("suite", sorted({name.split("/")[0] for name in checks.PROPERTIES}))
    def test_check_suite_smoke(self, capsys, suite):
        code, out, _ = run(capsys, "check", "--suite", suite, "--max-n", "3")
        registered = [name for name in checks.PROPERTIES if name.startswith(f"{suite}/")]
        assert code == 0 and registered
        assert [row.split(":")[0] for row in out.splitlines()] == [f"PASS {name}" for name in registered]

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_check_max_n_below_one_is_a_usage_error(self, capsys, max_n):
        with pytest.raises(SystemExit) as info:
            main(["check", "--max-n", max_n, "--suite", "core"])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert err.count("usage:") == 1 and f"argument --max-n: must be at least 1, got {max_n}" in err
        with pytest.raises(ValueError, match="at least 1"):
            checks.run_suite("core", max_n=int(max_n))

    def test_check_unknown_suite(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "nope")
        assert code == 1 and "unknown suite" in err

    def test_deterministic_output(self, capsys, edge_file):
        _, first, _ = run(capsys, "decompose", edge_file)
        _, second, _ = run(capsys, "decompose", edge_file)
        assert first == second


# labels fraction text refuses, one or two to a shrub, in numerator and
# denominator factors
BAD_LABEL_SHRUBS = (
    graft_generator(-3, "x"),
    graft_generator("x", "10"),
    pair_generator("a b", "10"),
    Shrub(["a b", "zz", -3, 5], {"a b": 0, "zz": 0, -3: 1, 5: 1}, [("a b", -3), ("a b", 5), ("zz", -3), ("zz", 5)]),
)


class TestWriterAsTheFormPath:
    """``shrubs fraction`` then ``shrubs reconstruct`` print the bytes and
    exit codes of the form path: text written from linear forms, read back
    by the general parser and rebuilt by the oracle."""

    @staticmethod
    def expected_fraction(P):
        try:
            return 0, oracle_format_fraction(oracle_fraction(P)) + "\n", ""
        except ValueError as exc:
            return 1, "", f"ValueError: {exc}\n"

    def test_every_shrub_up_to_four_and_refused_labels(self, capsys, tmp_path):
        shrub_file, fraction_file = tmp_path / "shrub.json", tmp_path / "fraction.txt"
        shrubs = [P for n in range(1, 5) for P in checks.all_shrubs(n)] + list(BAD_LABEL_SHRUBS)
        refused = 0
        for P in shrubs:
            shrub_file.write_text(P.to_json())
            got = run(capsys, "fraction", str(shrub_file))
            assert got == self.expected_fraction(P), P
            if got[0]:
                refused += 1
                continue
            fraction_file.write_text(got[1])
            expected = oracle_reconstruct(_parse_general(got[1])).to_json()
            assert expected == P.to_json()
            assert run(capsys, "reconstruct", str(fraction_file)) == (0, expected + "\n", "")
        assert refused == len(BAD_LABEL_SHRUBS)


class TestMalformedInput:
    """Malformed input exits 1 with one line on stderr and no traceback.

    Input that recurses past the interpreter's limit counts too.  Those
    cases run in process, each library call under a limit of 100 frames
    above its caller (restored afterwards), so the inputs stay small.
    """

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

    def test_fraction_with_unbalanced_parentheses(self, tmp_path):
        ffile = tmp_path / "frac.txt"
        ffile.write_text("1/((u1)(u1+u2)")
        err = self.check_clean_failure("reconstruct", str(ffile))
        assert err == "ValueError: cannot parse fraction '1/((u1)(u1+u2)': unbalanced parentheses\n"

    def test_shrub_without_height(self, tmp_path):
        sfile = tmp_path / "shrub.json"
        sfile.write_text('{"vertices":[1]}')
        err = self.check_clean_failure("fraction", str(sfile))
        assert err.startswith("ValueError:") and "height" in err

    def test_shrub_with_height_for_no_vertex(self, tmp_path):
        sfile = tmp_path / "shrub.json"
        sfile.write_text('{"vertices":[1,2],"height":{"1":0,"2":1,"3":0},"edges":[[1,2]]}')
        err = self.check_clean_failure("validate", str(sfile))
        assert err == "UnknownLabel: unknown label '3' in height map\n"

    def test_shrub_as_top_level_list(self, tmp_path):
        sfile = tmp_path / "shrub.json"
        sfile.write_text("[1, 2]")
        err = self.check_clean_failure("fraction", str(sfile))
        assert err.startswith("ValueError:")

    @pytest.mark.parametrize("command", ["validate", "evaluate", "orbit"])
    def test_deeply_nested_json(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        err = self.check_clean_failure(command, str(path))
        assert "nested too deeply" in err

    @pytest.mark.parametrize("command, sign", [("orbit", "Infinity"), ("act", "1.5")])
    def test_signed_shrub_with_non_unit_sign(self, tmp_path, command, sign):
        path = tmp_path / "signed.json"
        path.write_text(f'{{"sign": {sign}, "shrub": {pair_generator(1, 2).to_json()}}}')
        args = ("act", "1,0,2") if command == "act" else ("orbit",)
        err = self.check_clean_failure(*args, str(path))
        assert err.startswith(f"ValueError: sign must be +1 or -1, got {float(sign)!r}")

    # int() reads true and "1" as 1: a sign that is not a JSON number is
    # refused, where it used to be read
    @pytest.mark.parametrize("command, sign, shown", [("orbit", "true", "True"), ("act", '"1"', "'1'")])
    def test_signed_shrub_with_non_number_sign(self, tmp_path, command, sign, shown):
        path = tmp_path / "signed.json"
        path.write_text(f'{{"sign": {sign}, "shrub": {pair_generator(1, 2).to_json()}}}')
        args = ("act", "1,0,2") if command == "act" else ("orbit",)
        err = self.check_clean_failure(*args, str(path))
        assert err == f"ValueError: sign must be +1 or -1, got {shown}\n"

    def test_reconstruct_refused_chain_of_1000(self, tmp_path):
        # the fault walk counts heights once for the whole fraction, so a
        # refusal of this size takes about a second, interpreter start included
        f = fraction_of_shrub(chain(1000))
        extra = LinearForm.sum_of((999, 1000))
        path = tmp_path / "frac.txt"
        path.write_text(format_fraction(FactoredFraction(f.sign, f.scalar, f.num, f.den + (extra,))))
        start = time.perf_counter()
        err = self.check_clean_failure("reconstruct", str(path))
        assert time.perf_counter() - start < 10
        assert err == "NotInImage: no label can start a compatible order\n"

    def test_act_with_non_integer_permutation(self, tmp_path):
        path = tmp_path / "signed.json"
        path.write_text(f'{{"sign": 1, "shrub": {pair_generator(1, 2).to_json()}}}')
        err = self.check_clean_failure("act", "a,b,c", str(path))
        assert err == "ValueError: need a permutation of 0..2 in one-line notation, got ('a', 'b', 'c')\n"

    def test_fraction_of_a_label_the_text_cannot_carry(self, tmp_path):
        path = tmp_path / "shrub.json"
        path.write_text(Shrub(["10"], {"10": 0}, []).to_json())
        err = self.check_clean_failure("fraction", str(path))
        assert err.startswith("ValueError: label '10' cannot be written in fraction text")

    def run_limited(self, capsys, monkeypatch, owner, function, *args):
        """Run the CLI with ``owner.function`` allowed only 100 frames more
        than its caller has."""
        original = getattr(owner, function)

        def limited(*call_args, **kwargs):
            saved = sys.getrecursionlimit()
            sys.setrecursionlimit(stack_depth() + 100)
            try:
                return original(*call_args, **kwargs)
            finally:
                sys.setrecursionlimit(saved)

        monkeypatch.setattr(owner, function, limited)
        return run(capsys, *args)

    def test_decompose_long_chain(self, capsys, monkeypatch, tmp_path):
        # decompose runs without recursion, so 100 frames suffice for 150 levels
        path = tmp_path / "chain.json"
        path.write_text(chain(150).to_json())
        want = operad.decompose(chain(150)).to_json()
        code, out, err = self.run_limited(capsys, monkeypatch, operad, "decompose", "decompose", str(path))
        assert (code, out, err) == (0, want + "\n", "")

    def test_evaluate_deep_word(self, capsys, monkeypatch, tmp_path):
        # evaluate runs without recursion, so 100 frames suffice for 150 levels
        word = 0
        for k in range(1, 151):
            word = {"gen": "D", "slot": f"s{k}", "args": [k, word]}
        path = tmp_path / "word.json"
        path.write_text(json.dumps(word))
        want = operad.evaluate(operad.GenWord.from_json(json.dumps(word))).to_json()
        code, out, err = self.run_limited(capsys, monkeypatch, operad, "evaluate", "evaluate", str(path))
        assert (code, out, err) == (0, want + "\n", "")

    def test_decompose_chain_of_5000(self, tmp_path):
        # the word's JSON is written flat, so a fresh interpreter's limit does not bind
        path = tmp_path / "chain.json"
        path.write_text(chain(5000).to_json())
        code, out, err = run_process("decompose", str(path))
        assert (code, err) == (0, "")
        assert out == operad.decompose(chain(5000)).to_json() + "\n"
        assert out.count('{"gen": "D"') == 4999

    def test_evaluate_word_of_5000_levels(self, tmp_path):
        # the stdlib JSON parser refuses nesting this deep, so the word is
        # read again on an explicit stack
        heads = (f'{{"gen": "D", "slot": "s{k}", "args": [{k}, ' for k in range(5000, 0, -1))
        text = "".join(heads) + "0" + "]}" * 5000
        path = tmp_path / "word.json"
        path.write_text(text)
        word = operad.GenWord.leaf(0)
        for k in range(1, 5001):
            word = operad.GenWord.node("D", f"s{k}", operad.GenWord.leaf(k), word)
        code, out, err = run_process("evaluate", str(path))
        assert (code, err) == (0, "")
        assert out == operad.evaluate(word).to_json() + "\n"

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda text: text[:-1], "MalformedWord: invalid JSON: JSON nested too deeply to parse\n"),
            (lambda text: text.replace('"D"', '"X"', 1), "MalformedWord: unknown generator 'X'\n"),
        ],
        ids=["truncated", "unknown-generator"],
    )
    def test_malformed_deep_word(self, tmp_path, fault, message):
        path = tmp_path / "word.json"
        path.write_text(fault(operad.decompose(chain(5000)).to_json()))
        assert self.check_clean_failure("evaluate", str(path)) == message

    def test_chain_of_5000_round_trips(self, tmp_path):
        shrub, word = tmp_path / "chain.json", tmp_path / "word.json"
        shrub.write_text(chain(5000).to_json())
        code, out, err = run_process("decompose", str(shrub))
        assert (code, err) == (0, "")
        word.write_text(out)
        code, out, err = run_process("evaluate", str(word))
        assert (code, err) == (0, "")
        assert out == chain(5000).to_json() + "\n"

    def test_reconstruct_long_chain(self, capsys, monkeypatch, tmp_path):
        # a shrub fraction is read directly, so 100 frames suffice for 150 levels
        path = tmp_path / "frac.txt"
        path.write_text(format_fraction(fraction_of_shrub(chain(150))))
        code, out, err = self.run_limited(
            capsys, monkeypatch, reconstruction, "reconstruct", "reconstruct", str(path)
        )
        assert (code, out, err) == (0, chain(150).to_json() + "\n", "")

    def test_reconstruct_long_chain_one_factor_too_many(self, capsys, monkeypatch, tmp_path):
        # the wrong degree sends it to the fault walk, which peels the chain
        # down to its top, with no recursion, before it meets the extra factor
        f = fraction_of_shrub(chain(150))
        extra = LinearForm.sum_of((149, 150))
        path = tmp_path / "frac.txt"
        path.write_text(format_fraction(FactoredFraction(f.sign, f.scalar, f.num, f.den + (extra,))))
        code, out, err = self.run_limited(
            capsys, monkeypatch, reconstruction, "reconstruct", "reconstruct", str(path)
        )
        assert (code, out, err) == (1, "", "NotInImage: no label can start a compatible order\n")


# the public names of ``shrubs``, by defining module
PUBLIC = {
    "anticyclic": "CTree OrbitInvariant SignedShrub act all_ctrees b0 b0_inverse ctree_act "
    "forest_act orbit orbit_invariant ram_count_preserved",
    "core": "RamClass Shrub count_isomorphism_classes enumerate_shrubs_bruteforce label_key "
    "trivial_shrub",
    "errors": "CapExceeded DegreeCapExceeded ForbiddenPattern HeightJump LabelClash MalformedWord "
    "NotAForest NotALeaf NotCorrelated NotInImage NotInZinbielImage ShrubError UnknownLabel "
    "Unsupported ZeroDenominator",
    "mould": "FactoredFraction LinearForm MouldElement Polynomial RationalFunction "
    "deformed_generators embed_order embed_zinb equals expand format_fraction fraction_of_shrub "
    "kappa mould_compose parse_fraction zinb_extract",
    "operad": "GenWord compose decompose disjoint_union evaluate graft graft_generator pair_generator",
    "reconstruction": "fraction_components reconstruct recover_heights",
    "series_parallel": "count_series_parallel series_parallel_posets",
    "zinbiel": "TotalOrder ZinbElement compatible_orders gamma zinb_compose",
}

# what a one-shot ``fraction`` or ``reconstruct`` must not import
HEAVY = {
    "shrubs.checks",
    "shrubs.anticyclic",
    "shrubs.operad",
    "shrubs.zinbiel",
    "shrubs.series_parallel",
    "dataclasses",
}


def modules_after(*lines):
    """The names in ``sys.modules`` after ``lines`` run in a fresh interpreter."""
    proc = python("-c", "\n".join((*lines, "import sys", "print(*sys.modules, file=sys.stderr)")))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


class TestLazyImports:
    """``import shrubs`` loads nothing; each CLI command loads what it runs."""

    @pytest.mark.parametrize(
        "command, runs", [("fraction", "shrubs.mould"), ("reconstruct", "shrubs.reconstruction")]
    )
    def test_oneshot_commands_skip_unused_modules(self, tmp_path, command, runs):
        path = tmp_path / "input"
        P = graft_generator(2, 1)
        path.write_text(P.to_json() if command == "fraction" else format_fraction(fraction_of_shrub(P)))
        loaded = modules_after("from shrubs import cli", f"assert cli.main([{command!r}, {str(path)!r}]) == 0")
        assert runs in loaded
        assert not loaded & HEAVY
        assert ("shrubs.fraction_parser" in loaded) == (command == "reconstruct")

    def test_bare_import_loads_no_submodule(self):
        loaded = modules_after("import shrubs")
        assert "shrubs" in loaded
        assert not [name for name in loaded if name.startswith("shrubs.")]

    def test_submodules_resolve_after_bare_import(self):
        lines = ["import shrubs"]
        lines += [f"assert shrubs.{module}.__name__ == 'shrubs.{module}'" for module in PUBLIC]
        modules_after(*lines)

    def test_all_lists_the_public_names(self):
        names = [name for names in PUBLIC.values() for name in names.split()]
        assert len(names) == len(set(names)) == 67
        assert sorted(shrubs.__all__) == sorted(names)
        assert set(names) <= set(dir(shrubs))
        assert shrubs.__version__ == "0.1.0"

    def test_names_are_the_defining_objects(self):
        namespace = {}
        exec("from shrubs import *", namespace)
        for module, names in PUBLIC.items():
            owner = importlib.import_module(f"shrubs.{module}")
            for name in names.split():
                assert getattr(shrubs, name) is getattr(owner, name)
                assert namespace[name] is getattr(owner, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            shrubs.nope
        assert not hasattr(shrubs, "nope")
