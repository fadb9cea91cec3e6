"""Command-line frontend with stable, line-oriented output.

Exit codes: 0 on success (and on "yes" verdicts), 1 on domain "no/none"
verdicts (not dominated, unsolvable, mismatch), 2 on usage, parse, guard and
budget errors.  All output is deterministic: no randomness, no configuration
files, flags only.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import IO

from . import dominance, network, partitions, rings
from .errors import GuardExceeded

TABLE1_MAX_K = 30
BUDGET_BITS = 1024  # refuse --budget base^exp if exp < 0 or exp * (bits of base - 1) >= this

# the expected non-trivial maximal rings of size p^k, k <= 12, and the six
# maximal rings of size 777600 = 2^7 * 3^5 * 5^2
EXAMPLE_PRIME_POWER = {
    5: ["(3,2)"],
    7: ["(5,2)", "(4,3)"],
    8: ["(5,3)"],
    9: ["(7,2)", "(5,4)"],
    10: ["(7,3)", "(6,4)"],
    11: ["(9,2)", "(8,3)", "(7,4)", "(6,5)"],
    12: ["(7,5)"],
}
EXAMPLE_COMPOSITE = [
    "GF(2^7)xGF(3^5)xGF(5^2)",
    "GF(2^5)xGF(2^2)xGF(3^5)xGF(5^2)",
    "GF(2^4)xGF(2^3)xGF(3^5)xGF(5^2)",
    "GF(2^7)xGF(3^3)xGF(3^2)xGF(5^2)",
    "GF(2^5)xGF(2^2)xGF(3^3)xGF(3^2)xGF(5^2)",
    "GF(2^4)xGF(2^3)xGF(3^3)xGF(3^2)xGF(5^2)",
]


def _parse_factored_size(text: str) -> list[tuple[int, int]]:
    """Accept `2^7*3^5*5^2` or a plain integer (factored, must be <= 2^20)."""
    text = text.strip()
    if text.isdigit():
        n = int(text)
        if n < 2:
            raise ValueError("size must be at least 2")
        if n > rings.ENUMERATION_GUARD:
            raise GuardExceeded(f"plain size {n} exceeds 2^20; pass a factored form")
        return rings.factorize(n)
    out = []
    for chunk in text.split("*"):
        base, _, exp = chunk.strip().partition("^")
        p = int(base)
        k = int(exp) if exp else 1
        out.append((p, k))
    return out


def _parse_budget(text: str) -> int:
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        base, exp = int(base), int(exp)
        # base**exp >= 2**(exp * (bit length - 1)): bound it before the power
        if exp < 0 or exp * (base.bit_length() - 1) >= BUDGET_BITS:
            raise GuardExceeded(f"budget {text}: exponent out of range")
        return base**exp
    return int(text)


def _load_table1() -> dict[int, str]:
    raw = resources.files("ringcode").joinpath("data/table1.txt").read_text()
    rows = {}
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        rows[int(head)] = body.strip()
    return rows


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ringcode")
    sub = top.add_subparsers(dest="group", required=True)

    part = sub.add_parser("partitions").add_subparsers(dest="cmd", required=True)
    p_en = part.add_parser("enumerate")
    p_en.add_argument("--k", type=int, required=True)
    p_mx = part.add_parser("maximal")
    p_mx.add_argument("--k", type=int, required=True)
    p_dv = part.add_parser("divides")
    p_dv.add_argument("--left", required=True)
    p_dv.add_argument("--right", required=True)

    rng = sub.add_parser("rings").add_subparsers(dest="cmd", required=True)
    r_mx = rng.add_parser("maximal")
    r_mx.add_argument("--size", required=True)
    r_pa = rng.add_parser("parse")
    r_pa.add_argument("--ring", required=True)
    r_el = rng.add_parser("elements")
    r_el.add_argument("--ring", required=True)

    dom = sub.add_parser("dominance").add_subparsers(dest="cmd", required=True)
    for name in ("fields", "zmod", "catalog"):
        d = dom.add_parser(name)
        d.add_argument("--left", required=True)
        d.add_argument("--right", required=True)

    net = sub.add_parser("network").add_subparsers(dest="cmd", required=True)
    n_gen = net.add_parser("gen").add_subparsers(dest="family", required=True)
    g_ct = n_gen.add_parser("choose-two")
    g_ct.add_argument("--n", type=int, required=True)
    g_ct.add_argument("--file")
    g_ts = n_gen.add_parser("two-six")
    g_ts.add_argument("--file")
    n_sol = net.add_parser("solve")
    n_sol.add_argument("--file", required=True)
    n_sol.add_argument("--ring", required=True)
    n_sol.add_argument("--budget", default=str(network.DEFAULT_BUDGET))
    n_ver = net.add_parser("verify")
    n_ver.add_argument("--file", required=True)
    n_ver.add_argument("--code", required=True)
    n_tr = net.add_parser("transform")
    n_tr.add_argument("--file", required=True)
    n_tr.add_argument("--code", required=True)
    n_tr.add_argument("--kind", required=True, choices=("aug", "mod", "proj", "lift"))
    n_tr.add_argument("--target")
    n_tr.add_argument("--index", type=int)

    ver = sub.add_parser("verify").add_subparsers(dest="cmd", required=True)
    v_t1 = ver.add_parser("table1")
    v_t1.add_argument("--max-k", type=int, default=TABLE1_MAX_K, dest="max_k")
    ver.add_parser("example513")

    return top


def run(argv: list[str], out: IO = sys.stdout) -> int:
    """Dispatch an argument vector; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _dispatch(args, out)
    except (ValueError, OSError) as exc:  # GuardExceeded, BudgetExceeded and ParseError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, out: IO) -> int:
    if args.group == "partitions":
        return _run_partitions(args, out)
    if args.group == "rings":
        return _run_rings(args, out)
    if args.group == "dominance":
        return _run_dominance(args, out)
    if args.group == "network":
        return _run_network(args, out)
    return _run_verify(args, out)


def _run_partitions(args, out: IO) -> int:
    if args.cmd == "enumerate":
        for p in partitions.enumerate_partitions(args.k):
            print(p, file=out)
        return 0
    if args.cmd == "maximal":
        for p in partitions.maximal_partitions(args.k):
            print(p, file=out)
        return 0
    left = partitions.parse_partition(args.left)
    right = partitions.parse_partition(args.right)
    ok = partitions.divides(left, right)
    print(f"left|right: {'YES' if ok else 'NO'}", file=out)
    return 0 if ok else 1


def _run_rings(args, out: IO) -> int:
    if args.cmd == "maximal":
        factored = _parse_factored_size(args.size)
        for pr in dominance.iter_maximal_rings(factored):  # each printed as it is built
            print(pr, file=out)
        return 0
    spec = rings.parse_ring(args.ring)
    if args.cmd == "parse":
        canon = rings.canonicalize(spec)
        print(rings.format_ring(canon), file=out)
        print(f"size: {rings.ring_size(canon)}", file=out)
        print(f"characteristic: {rings.characteristic(canon)}", file=out)
        return 0
    for el in rings.elements(spec):
        print(rings.format_element(el), file=out)
    return 0


def _verdict_line(verdict: dominance.DominanceVerdict) -> str:
    if verdict.relation is dominance.Relation.DOMINATES:
        return "left⪯right: YES"
    word = (
        "NO"
        if verdict.relation is dominance.Relation.NOT_DOMINATES
        else "UNKNOWN"
    )
    return f"left⪯right: {word} ({verdict.describe()})"


def _run_dominance(args, out: IO) -> int:
    left = rings.parse_ring(args.left)
    right = rings.parse_ring(args.right)
    if args.cmd == "fields":
        verdict = dominance.field_product_dominates(
            dominance.partition_ring_of(left), dominance.partition_ring_of(right)
        )
    elif args.cmd == "zmod":
        if not isinstance(left, rings.IntegersMod) or not isinstance(
            right, rings.IntegersMod
        ):
            raise ValueError("zmod compares Z(n) rings; use Z(...) expressions")
        verdict = dominance.zmod_dominates(left.n, right.n)
    else:
        verdict = dominance.catalog_dominates(left, right)
    print(_verdict_line(verdict), file=out)
    return 0 if verdict.relation is dominance.Relation.DOMINATES else 1


def _emit_json(data: dict, path: str | None, out: IO):
    text = network.dump_json(data)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=out)


def _load_network(path: str) -> network.Network:
    with open(path) as fh:
        net = network.network_from_json(json.load(fh))
    defects = network.validate(net)
    if defects:
        raise ValueError("invalid network: " + "; ".join(defects))
    return net


def _run_network(args, out: IO) -> int:
    if args.cmd == "gen":
        net = (
            network.choose_two(args.n)
            if args.family == "choose-two"
            else network.two_six()
        )
        _emit_json(network.network_to_json(net), args.file, out)
        return 0
    net = _load_network(args.file)
    if args.cmd == "solve":
        spec = rings.parse_ring(args.ring)
        budget = _parse_budget(args.budget)
        code, why = network._solve(net, spec, budget)
        if code is None:
            if len(why) > 1:  # refuted by a factor or a residue field
                print(f"refuted over {why[0]} ({', '.join(why[1:])})", file=sys.stderr)
            print("UNSOLVABLE (search exhausted)", file=out)
            return 1
        print(network.dump_json(network.code_to_json(code)), file=out)
        return 0
    with open(args.code) as fh:
        code = network.code_from_json(json.load(fh))
    if args.cmd == "verify":
        ok = network.verify(net, code)
        print("VALID" if ok else "INVALID", file=out)
        return 0 if ok else 1
    # transform
    if args.kind == "aug":
        if not isinstance(code.ring, rings.DualNumbers):
            raise ValueError("aug needs a code over D(p)")
        mapped = network.map_code(net, code, rings.dual_augmentation(code.ring.p))
    elif args.kind == "mod":
        if not args.target:
            raise ValueError("mod needs --target")
        mapped = network.map_code(
            net, code, rings.mod_reduction(code.ring, rings.parse_ring(args.target))
        )
    elif args.kind == "proj":
        if args.index is None:
            raise ValueError("proj needs --index (1-based)")
        mapped = network.map_code(
            net, code, rings.projection(code.ring, args.index - 1)
        )
    else:
        if not args.target:
            raise ValueError("lift needs --target")
        mapped = network.lift_subring(net, code, rings.parse_ring(args.target))
    print(network.dump_json(network.code_to_json(mapped)), file=out)
    return 0


def _run_verify(args, out: IO) -> int:
    if args.cmd == "table1":
        return verify_table1(args.max_k, out)
    return verify_example513(out)


def verify_table1(max_k: int, out: IO = sys.stdout) -> int:
    """Recompute the maximal partitions for k <= max_k and diff against the
    bundled golden table; exit 0 iff identical, 1 with the first mismatch."""
    if not 1 <= max_k <= TABLE1_MAX_K:
        raise ValueError(f"--max-k must be in 1..{TABLE1_MAX_K}")
    golden = _load_table1()
    for k in range(1, max_k + 1):
        computed = " ".join(str(p) for p in partitions.maximal_partitions(k))
        expected = golden.get(k)
        if computed != expected:
            print(f"table1 MISMATCH at k={k}", file=out)
            print(f"  golden:   {expected}", file=out)
            print(f"  computed: {computed}", file=out)
            return 1
    print(f"table1 OK ({max_k} rows checked)", file=out)
    return 0


def verify_example513(out: IO = sys.stdout) -> int:
    """Check the bundled lists of maximal rings of size p^k (k <= 12) and of
    size 777600 against recomputation."""
    for p in (2, 3):
        for k in range(1, 13):
            got = dominance.maximal_rings([(p, k)])
            want_parts = [f"({k})"] + EXAMPLE_PRIME_POWER.get(k, [])
            got_parts = [str(pr.partition_for(p)) for pr in got]
            if got_parts != want_parts:
                print(f"example513 MISMATCH at p={p}, k={k}", file=out)
                print(f"  expected partitions: {want_parts}", file=out)
                print(f"  computed partitions: {got_parts}", file=out)
                return 1
    got = [str(pr) for pr in dominance.maximal_rings([(2, 7), (3, 5), (5, 2)])]
    if got != EXAMPLE_COMPOSITE:
        print("example513 MISMATCH for size 777600", file=out)
        for line in got:
            print(f"  computed: {line}", file=out)
        return 1
    print("example513 OK", file=out)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
