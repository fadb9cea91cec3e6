"""Command-line behavior: output formats, exit codes, determinism."""

import hashlib
import io
import itertools
import json
import math
import re
import time
from importlib import resources

import pytest
from test_dominance import PINNED_RINGS

from ringcode import cli, dominance
from ringcode import network as network_mod
from ringcode.network import (
    Edge,
    Message,
    Network,
    Receiver,
    choose_two,
    code_from_json,
    code_to_json,
    dump_json,
    network_from_json,
    network_to_json,
    solve_brute,
    two_six,
    verify,
)
from ringcode.partitions import maximal_partitions
from ringcode.rings import PrimeField


def run_cli(*argv):
    buf = io.StringIO()
    code = cli.run(list(argv), out=buf)
    return code, buf.getvalue()


class TestPartitionsCommands:
    def test_maximal_k12(self):
        assert run_cli("partitions", "maximal", "--k", "12") == (0, "(12)\n(7,5)\n")

    def test_enumerate_k4(self):
        code, out = run_cli("partitions", "enumerate", "--k", "4")
        assert code == 0
        assert out == "(4)\n(3,1)\n(2,2)\n(2,1,1)\n(1,1,1,1)\n"

    def test_divides(self):
        assert run_cli(
            "partitions", "divides", "--left", "(2,2,1)", "--right", "(4,1)"
        ) == (0, "left|right: YES\n")
        code, out = run_cli(
            "partitions", "divides", "--left", "(3,2)", "--right", "(5)"
        )
        assert code == 1 and out == "left|right: NO\n"

    def test_guard_is_usage_error(self):
        code, _ = run_cli("partitions", "maximal", "--k", "99")
        assert code == 2


class TestRingsCommands:
    def test_maximal_size_power(self):
        assert run_cli("rings", "maximal", "--size", "2^5") == (
            0,
            "GF(2^5)\nGF(2^3)xGF(2^2)\n",
        )

    def test_maximal_size_plain(self):
        assert run_cli("rings", "maximal", "--size", "32") == (
            0,
            "GF(2^5)\nGF(2^3)xGF(2^2)\n",
        )

    def test_maximal_size_factored(self):
        code, out = run_cli("rings", "maximal", "--size", "2^7*3^5*5^2")
        assert code == 0 and len(out.splitlines()) == 6
        assert out.splitlines()[0] == "GF(2^7)xGF(3^5)xGF(5^2)"

    @staticmethod
    def _names(p, parts):
        """A partition ring's name, one field per part, as format_ring prints it."""
        return "x".join(f"GF({p}^{a})" if a > 1 else f"GF({p})" for a in parts)

    @pytest.mark.parametrize("k", [21, 30])
    def test_maximal_size_above_the_field_size_guard(self, k):
        # GF(2^k) for k > 20 is never built: the name comes from the partition
        row = resources.files("ringcode").joinpath("data/table1.txt").read_text().splitlines()[k - 1]
        assert row.startswith(f"{k}: ")
        want = [self._names(2, map(int, part.split(","))) for part in re.findall(r"\(([\d,]+)\)", row)]
        assert run_cli("rings", "maximal", "--size", f"2^{k}") == (0, "".join(w + "\n" for w in want))

    def test_maximal_size_odd_prime_above_the_guard(self):
        want = [self._names(3, part.parts) for part in maximal_partitions(13)]
        assert run_cli("rings", "maximal", "--size", "3^13") == (0, "".join(w + "\n" for w in want))

    def test_maximal_three_primes_in_order(self):
        # one ring per choice of a partition per prime, the first prime's
        # partition varying fastest
        sizes = [(2, 12), (3, 10), (5, 8)]
        choices = [maximal_partitions(k) for _, k in sizes]
        want = ["x".join(self._names(p, part.parts) for (p, _), part in zip(sizes, reversed(combo)))
                for combo in itertools.product(*reversed(choices))]
        code, out = run_cli("rings", "maximal", "--size", "2^12*3^10*5^8")
        assert code == 0 and out.splitlines() == want
        assert len(want) == math.prod(map(len, choices)) > 8

    def test_maximal_rings_are_printed_as_they_are_built(self, monkeypatch):
        built, at_write = [], []
        real = dominance.PartitionRing
        monkeypatch.setattr(dominance, "PartitionRing", lambda assignment: built.append(1) or real(assignment))

        class Out(io.StringIO):
            def write(self, text):
                at_write.append(len(built))
                return super().write(text)

        assert cli.run(["rings", "maximal", "--size", "2^12*3^10*5^8"], out=Out()) == 0
        assert at_write[0] == 1 and len(built) > 8

    def test_parse(self):
        code, out = run_cli("rings", "parse", "--ring", " Z(4) x GF(3) ")
        assert code == 0
        assert out == "GF(3)xZ(4)\nsize: 12\ncharacteristic: 12\n"

    def test_elements(self):
        assert run_cli("rings", "elements", "--ring", "D(2)") == (
            0,
            "0\nx\n1\n1+x\n",
        )

    def test_bad_expression(self):
        code, _ = run_cli("rings", "parse", "--ring", "GF(6)")
        assert code == 2

    def test_degree_zero(self, capsys):
        assert run_cli("rings", "parse", "--ring", "GF(2^0)") == (2, "")
        assert capsys.readouterr().err == "error: GF(2^0): degree must be positive (at offset 0)\n"

    def test_elements_guard(self):
        code, _ = run_cli("rings", "elements", "--ring", "Z(2000000)")
        assert code == 2

    @pytest.mark.parametrize(
        "ring",
        ["GF(10000000000000061)", "GF(10000000000000061^2)", "D(10000000000000061)"],
    )
    def test_size_guard_before_primality(self, ring, capsys):
        # the bound is checked first: trial division of this prime takes seconds
        code, _ = run_cli("rings", "parse", "--ring", ring)
        assert code == 2
        assert "exceeds the size guard" in capsys.readouterr().err

    def test_maximal_size_guard_before_primality(self, capsys):
        start = time.perf_counter()
        code, _ = run_cli("rings", "maximal", "--size", "10000000000000061^1")
        assert code == 2
        assert "exceeds" in capsys.readouterr().err
        assert time.perf_counter() - start < 1.0


class TestDominanceCommands:
    def test_fields_no_with_reason(self):
        code, out = run_cli(
            "dominance", "fields", "--left", "GF(8)xGF(4)", "--right", "GF(32)"
        )
        assert code == 1
        assert out == "left⪯right: NO (prime 2 exponent 5 has no divisor in {3,2})\n"

    def test_fields_yes(self):
        code, out = run_cli(
            "dominance", "fields", "--left", "GF(2)xGF(2)", "--right", "GF(4)"
        )
        assert code == 0 and out == "left⪯right: YES\n"

    def test_zmod(self):
        assert run_cli("dominance", "zmod", "--left", "Z(12)", "--right", "Z(4)")[0] == 0
        assert run_cli("dominance", "zmod", "--left", "Z(4)", "--right", "Z(8)")[0] == 1
        assert run_cli("dominance", "zmod", "--left", "GF(4)", "--right", "Z(8)")[0] == 2

    def test_catalog_characteristic_rule(self):
        code, out = run_cli(
            "dominance", "catalog", "--left", "GF(4)", "--right", "Z(4)"
        )
        assert (code, out) == (
            1, "left⪯right: NO (characteristic witness c=2: 2 | c but 4 does not divide c)\n"
        )

    def test_catalog_unknown(self):
        code, out = run_cli(
            "dominance", "catalog", "--left", "GF(4)xZ(9)", "--right", "GF(2)"
        )
        assert (code, out) == (
            1, "left⪯right: UNKNOWN (no rule settles this left side against GF(2))\n"
        )

    def test_zmod_size_guard_before_factoring(self, capsys):
        # factoring this modulus by trial division takes tens of seconds
        code, out = run_cli(
            "dominance", "catalog", "--left", "Z(10000000000000061)", "--right", "GF(2)"
        )
        assert code == 2 and out == ""
        assert "Z(10000000000000061) exceeds the size guard" in capsys.readouterr().err

    def test_fields_rejects_non_field(self):
        code, _ = run_cli("dominance", "fields", "--left", "Z(4)", "--right", "GF(4)")
        assert code == 2

    def test_catalog_bytes_are_pinned(self, capsys):
        # exit code, stdout and stderr of dominance catalog and dominance
        # fields over every ordered pair of PINNED_RINGS, concatenated, as
        # recorded before the factor walks were merged
        runs = []
        for cmd in ("catalog", "fields"):
            for left, right in itertools.product(PINNED_RINGS, repeat=2):
                capsys.readouterr()
                code, out = run_cli("dominance", cmd, "--left", left, "--right", right)
                runs.append(f"{code}\n{out}{capsys.readouterr().err}")
        assert {run[0] for run in runs} == {"0", "1", "2"}
        digest = hashlib.sha256("".join(runs).encode()).hexdigest()
        assert digest == "b5748251407100b52c63cdc120274cd8b257c1054cadb76a3a6f7c5bdee73a3c"


class TestNetworkCommands:
    def test_gen_matches_library(self, tmp_path):
        path = tmp_path / "ts.json"
        code, _ = run_cli("network", "gen", "two-six", "--file", str(path))
        assert code == 0
        assert network_from_json(json.loads(path.read_text())) == two_six()

    def test_gen_to_stdout(self):
        code, out = run_cli("network", "gen", "choose-two", "--n", "3")
        assert code == 0
        net = network_from_json(json.loads(out))
        assert len(net.receivers) == 3

    def test_gen_bytes_are_pinned(self):
        # stdout of gen choose-two --n 2..12 and gen two-six, concatenated, as
        # recorded before choose_two shared one network per n; a second round
        # reads the shared networks
        for _ in range(2):
            runs = [run_cli("network", "gen", "choose-two", "--n", str(n)) for n in range(2, 13)]
            runs.append(run_cli("network", "gen", "two-six"))
            assert {code for code, _ in runs} == {0}
            digest = hashlib.sha256("".join(out for _, out in runs).encode()).hexdigest()
            assert digest == "0168cdc16cda82b05ebf6cd872076b0e569b783b9a0fe5cc4d4f3c3400deabb6"

    def test_solve_bytes_are_pinned(self, tmp_path, capsys):
        # exit code, stdout and stderr (the "refuted over" chains) of network
        # solve of choose_two(2..5) over each ring, concatenated, as recorded
        # before a solve checked only the code it returns
        runs = []
        for n in range(2, 6):
            path = tmp_path / f"ct{n}.json"
            run_cli("network", "gen", "choose-two", "--n", str(n), "--file", str(path))
            for ring in ("GF(2)", "GF(4)", "Z(4)", "Z(6)", "Z(12)", "D(2)", "GF(2)xGF(3)"):
                capsys.readouterr()
                code, out = run_cli("network", "solve", "--file", str(path), "--ring", ring)
                runs.append(f"{code}\n{out}{capsys.readouterr().err}")
        assert {run[0] for run in runs} == {"0", "1"}
        digest = hashlib.sha256("".join(runs).encode()).hexdigest()
        assert digest == "0e0def84f06b307a3692025535331031965a7639b8394c73c7f98eba612cf081"

    def test_solve_verify_transform_flow(self, tmp_path):
        net_path = tmp_path / "ct3.json"
        run_cli("network", "gen", "choose-two", "--n", "3", "--file", str(net_path))

        code, out = run_cli(
            "network", "solve", "--file", str(net_path), "--ring", "D(2)"
        )
        assert code == 0
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(out)

        assert run_cli(
            "network", "verify", "--file", str(net_path), "--code", str(sol_path)
        ) == (0, "VALID\n")

        code, out = run_cli(
            "network",
            "transform",
            "--file",
            str(net_path),
            "--code",
            str(sol_path),
            "--kind",
            "aug",
        )
        assert code == 0
        mapped = tmp_path / "mapped.json"
        mapped.write_text(out)
        assert json.loads(out)["ring"] == "GF(2)"
        assert run_cli(
            "network", "verify", "--file", str(net_path), "--code", str(mapped)
        ) == (0, "VALID\n")

        code, out = run_cli(
            "network",
            "transform",
            "--file",
            str(net_path),
            "--code",
            str(mapped),
            "--kind",
            "lift",
            "--target",
            "GF(4)",
        )
        assert code == 0 and json.loads(out)["ring"] == "GF(2^2)"

    def test_solve_unsolvable(self, tmp_path):
        path = tmp_path / "ts.json"
        run_cli("network", "gen", "two-six", "--file", str(path))
        code, out = run_cli(
            "network", "solve", "--file", str(path), "--ring", "GF(2)"
        )
        assert code == 1 and out == "UNSOLVABLE (search exhausted)\n"

    def test_solve_names_refuting_ring(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        run_cli("network", "gen", "two-six", "--file", str(path))
        capsys.readouterr()
        for ring, line in (
            ("Z(4)", "refuted over Z(2) (residue field of Z(4))\n"),
            ("GF(2)xGF(3)", "refuted over GF(2) (factor of GF(2)xGF(3))\n"),
            ("GF(2)", ""),  # refuted by its own search: nothing to name
        ):
            code, out = run_cli(
                "network", "solve", "--file", str(path), "--ring", ring, "--budget", "2^40"
            )
            assert (code, out) == (1, "UNSOLVABLE (search exhausted)\n")
            assert capsys.readouterr().err == line

    def test_solve_budget_error(self, tmp_path):
        path = tmp_path / "ts.json"
        run_cli("network", "gen", "two-six", "--file", str(path))
        code, _ = run_cli(
            "network",
            "solve",
            "--file",
            str(path),
            "--ring",
            "GF(3)",
            "--budget",
            "2^4",
        )
        assert code == 2

    def test_solve_product_at_default_budget(self, tmp_path):
        # the budget applies to GF(4) and GF(3), the rings searched, not to
        # the 12**8 assignments of the requested product
        path = tmp_path / "ts.json"
        run_cli("network", "gen", "two-six", "--file", str(path))
        code, out = run_cli(
            "network", "solve", "--file", str(path), "--ring", "GF(4)xGF(3)"
        )
        assert code == 0
        assert json.loads(out)["ring"] == "GF(2^2)xGF(3)"

    @pytest.mark.parametrize("messages", [["x"], ["x", "y"]])
    def test_solve_receiver_with_six_inputs(self, tmp_path, messages):
        # six parallel edges into one receiver: relays of x, or combinations
        # of x and y; its decoders over Z(32) are found by elimination, not
        # by enumerating 32^6 of them
        net = Network(
            ("s", "r"),
            tuple(Edge(f"e{i}", "s", "r") for i in range(1, 7)),
            tuple(Message(m, "s") for m in messages),
            (Receiver("r", tuple(messages)),),
        )
        path = tmp_path / "six.json"
        path.write_text(dump_json(network_to_json(net)))
        start = time.perf_counter()
        code, out = run_cli(
            "network", "solve", "--file", str(path), "--ring", "Z(32)", "--budget", "2^64"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0 and verify(net, code_from_json(json.loads(out)))

    @pytest.mark.parametrize(
        "budget", ["2^100000000000000", "10^400", "2^1024", "1025^103", "2^-3"]
    )
    def test_budget_bounded_before_the_power(self, tmp_path, budget, capsys):
        path = tmp_path / "ts.json"
        run_cli("network", "gen", "two-six", "--file", str(path))
        capsys.readouterr()
        code, out = run_cli(
            "network", "solve", "--file", str(path), "--ring", "GF(3)", "--budget", budget
        )
        assert (code, out) == (2, "")
        assert "budget" in capsys.readouterr().err

    def test_budget_forms(self):
        assert cli._parse_budget("2^26") == cli._parse_budget("67108864") == 2**26
        assert cli._parse_budget(" 2^1023 ") == 2**1023

    def test_threshold_grid_via_cli(self, tmp_path):
        """gen choose-two --n K then solve over GF(q): exit 0 iff q >= K-1."""
        for k in (3, 4, 5):
            path = tmp_path / f"ct{k}.json"
            run_cli("network", "gen", "choose-two", "--n", str(k), "--file", str(path))
            for q in (2, 3, 4, 5):
                code, _ = run_cli(
                    "network", "solve", "--file", str(path), "--ring", f"GF({q})"
                )
                assert code == (0 if q >= k - 1 else 1), (k, q)

    def test_solve_deterministic(self, tmp_path):
        path = tmp_path / "ts.json"
        run_cli("network", "gen", "two-six", "--file", str(path))
        outs = {
            run_cli("network", "solve", "--file", str(path), "--ring", "GF(3)")[1]
            for _ in range(2)
        }
        assert len(outs) == 1

    @staticmethod
    def _files(tmp_path, net, code):
        """net and code written as JSON files; their paths."""
        paths = tmp_path / "net.json", tmp_path / "code.json"
        for path, data in zip(paths, (net, code)):
            path.write_text(json.dumps(data))
        return [str(path) for path in paths]

    @pytest.mark.parametrize("which, key, value, error", [
        ("net", "receivers", [{"node": "r01x02", "demands": "xy"}], "network JSON: receivers[0].demands must be a list"),
        ("net", "nodes", [1, "m01", "m02", "r01x02"], "network JSON: nodes must hold strings only"),
        ("code", "edges", {"lam01": "01"}, "code JSON: edges['lam01'] must be a list"),
        ("code", "edges", {"lam01": [0, 1]}, "code JSON: edges['lam01'] must hold strings only"),
        ("code", "decoders", [], "code JSON: decoders must be an object"),
        ("code", "decoders", {"r01x02": ["0", "1"]}, "code JSON: decoder key 'r01x02' is not node:message"),
    ])
    def test_malformed_json_is_a_usage_error(self, which, key, value, error, tmp_path, capsys):
        # each was read as another network or code, or raised past run() with exit 1
        files = {"net": network_to_json(choose_two(2)), "code": code_to_json(solve_brute(choose_two(2), PrimeField(2)))}
        files[which] = {**files[which], key: value}
        net, code = self._files(tmp_path, files["net"], files["code"])
        capsys.readouterr()
        assert run_cli("network", "verify", "--file", net, "--code", code) == (2, "")
        assert capsys.readouterr().err == f"error: malformed {error}\n"

    @pytest.mark.parametrize("command", [
        ["solve", "--ring", "GF(2)"], ["verify", "--code", "{code}"],
        ["transform", "--code", "{code}", "--kind", "lift", "--target", "GF(4)"],
    ])
    def test_invalid_network_is_a_usage_error(self, command, tmp_path, capsys):
        # validate's defects, in its order, in the words every command prints
        data = network_to_json(choose_two(2))
        data["edges"][0]["head"] = "zz"
        data["edges"].append(dict(data["edges"][1]))
        net, code = self._files(tmp_path, data, code_to_json(solve_brute(choose_two(2), PrimeField(2))))
        capsys.readouterr()
        argv = [command[0], "--file", net, *(arg.format(code=code) for arg in command[1:])]
        assert run_cli("network", *argv) == (2, "")
        assert capsys.readouterr().err == "error: invalid network: duplicate edge ids; edge lam01: unknown head zz\n"

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("command", [
        ["solve", "--ring", "GF(2)"], ["verify", "--code", "{code}"],
        ["transform", "--code", "{code}", "--kind", "lift", "--target", "GF(4)"],
    ])
    def test_receiver_id_with_a_colon_is_refused_before_any_work(self, command, n, tmp_path, capsys, monkeypatch):
        # decoder keys are node:message, so no code of such a network can be
        # written; refused before any work, the exit code cannot depend on
        # whether a search finds a code (choose_two(4) has none over GF(2))
        data = json.loads(json.dumps(network_to_json(choose_two(n))).replace("r01x02", "r:01x02"))
        net, code = self._files(tmp_path, data, code_to_json(solve_brute(choose_two(2), PrimeField(2))))
        monkeypatch.setattr(network_mod, "_layout", lambda net: pytest.fail("the network was compiled"))
        capsys.readouterr()
        argv = [command[0], "--file", net, *(arg.format(code=code) for arg in command[1:])]
        assert run_cli("network", *argv) == (2, "")
        assert capsys.readouterr().err == "error: malformed network JSON: receivers[0].node 'r:01x02' contains ':'\n"


class TestVerifyCommands:
    def test_table1_full(self):
        assert run_cli("verify", "table1", "--max-k", "30") == (
            0,
            "table1 OK (30 rows checked)\n",
        )

    def test_table1_partial(self):
        assert run_cli("verify", "table1", "--max-k", "5") == (
            0,
            "table1 OK (5 rows checked)\n",
        )

    def test_table1_tampered(self, monkeypatch):
        golden = cli._load_table1()
        golden[12] = "(12) (7,5) (6,6)"
        monkeypatch.setattr(cli, "_load_table1", lambda: golden)
        code, out = run_cli("verify", "table1", "--max-k", "30")
        assert code == 1
        assert "MISMATCH at k=12" in out

    def test_table1_range(self):
        assert run_cli("verify", "table1", "--max-k", "31")[0] == 2

    def test_example513(self):
        assert run_cli("verify", "example513") == (0, "example513 OK\n")


class TestUsage:
    def test_unknown_subcommand(self):
        assert run_cli("partitions", "bogus")[0] == 2

    def test_missing_required(self):
        assert run_cli("partitions", "maximal")[0] == 2

    def test_byte_identical_repeats(self):
        for argv in (
            ("partitions", "maximal", "--k", "17"),
            ("rings", "maximal", "--size", "2^7*3^5*5^2"),
            ("rings", "elements", "--ring", "GF(8)"),
        ):
            assert run_cli(*argv) == run_cli(*argv)
