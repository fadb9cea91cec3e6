"""Job lists of the ringcode benchmark workloads.

Each workload is a fixed list of jobs built from a seed.  A job is one call
(or a short chain of calls) into ``ringcode`` whose time is measured, and a
check that runs outside the timed region and raises ``CheckFailed`` when the
answer is wrong.  Expected answers do not come from the code path under test:

* choose-two verdicts follow the residue-field rule: ``choose_two(n)`` is
  solvable over a ring iff every local factor's residue field has at least
  ``n - 1`` elements;
* every returned code is re-checked with ``verify``, which must not be
  skipped under ``python -O`` the way the library's own asserts are;
* maximal partitions are compared with ``maximal_partitions.txt``, whose
  rows for k <= 30 are the paper's Table 1 and whose rows for k = 31..40
  were recorded from this library, each partition re-checked maximal with
  the full-scan ``is_maximal_naive``;
* CLI output must match the expected bytes, and every definite dominance
  verdict must pass ``check_certificate``.

The seed permutes the job order (within a stage; later stages consume the
codes that earlier stages built) and relabels the node, edge and message ids
of the networks the benchmark generates.  Relabelling keeps verdicts but
changes the search order.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("solve", "theory", "codes")

# Large enough for every job here; the default budget refuses choose_two(8)
# over GF(7), which solves in milliseconds.
SOLVE_BUDGET = 2**128

# Fields carry the search loop and elimination; the non-field rings below
# carry brute-force decoding and product/dual-number arithmetic.
FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
FIELD_NS = range(2, 13)  # cases with 4 <= q < n - 1 are left out: EXCLUDED

RING_ANCHORS = (
    (4, "Z(4)"),
    (4, "D(2)"),
    (4, "GF(2)xGF(2)"),
    (4, "Z(9)"),
    (4, "D(3)"),
    (4, "Z(6)"),
    (4, "GF(4)xGF(3)"),
    (3, "Z(8)"),
    (3, "Z(10)"),
    (3, "GF(2)xGF(3)"),
)
# Cheap cases that raise the job count, each under several relabellings.
RING_CHEAP = tuple(
    (n, ring)
    for n in (2, 3)
    for ring in ("Z(4)", "D(2)", "GF(2)xGF(2)", "Z(6)", "Z(9)", "Z(12)")
) + ((2, "Z(8)"), (2, "Z(10)"))
RING_CHEAP_VARIANTS = 3

PARTITION_KS = range(1, 41)
THEORY_SIZES = (
    ((2, 12),),
    ((3, 8),),
    ((2, 20),),
    ((2, 30),),
    ((2, 7), (3, 5), (5, 2)),
    ((5, 3), (7, 2)),
    ((2, 9), (3, 6)),
)
CATALOG = (
    "GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(16)",
    "GF(32)", "Z(4)", "Z(6)", "Z(8)", "Z(9)", "Z(12)", "Z(20)", "D(2)", "D(3)",
    "GF(2)xGF(2)", "GF(2)xGF(3)", "GF(4)xGF(2)", "GF(4)xGF(3)", "GF(8)xGF(4)",
    "GF(9)xGF(3)", "Z(4)xGF(3)", "D(2)xGF(3)", "GF(2)xGF(2)xGF(2)",
)
CLI_EXPECTED = {
    ("verify", "table1"): "table1 OK (30 rows checked)\n",
    ("verify", "example513"): "example513 OK\n",
}

BIG_FIELDS = ("GF(2^8)", "GF(2^10)", "GF(3^5)", "GF(5^4)")
CODE_NS = (4, 8, 12)
INCLUSIONS = (("GF(2^5)", "GF(2^10)"), ("GF(2^4)", "GF(2^8)"), ("GF(5^2)", "GF(5^4)"))

# Cases left out because one job alone runs too long at the seed commit;
# candidates for a later workload once solving is structure-aware.
EXCLUDED = {
    "solve": (
        "choose_two(n) over GF(q) with 4 <= q < n - 1: unsolvable, e.g. choose_two(6) over GF(4) takes about 29 s",
        "choose_two(n) over GF(25), GF(27) and GF(32): 0.1 to 0.34 s each, 5 s per pass in all",
        "choose_two(4) over Z(8): about 48 s",
        "choose_two(4) over Z(10): about 146 s",
        "two-six (choose_two(4)) over Z(12): about 258 s",
        "choose_two(5) over Z(9): over 600 s",
        "choose_two(n <= 3) over product rings of size 8 to 12 other than GF(2)xGF(3): 0.6 to 9 s each",
    ),
    "theory": (),
    "codes": (),
}


class CheckFailed(Exception):
    """A job returned a wrong answer."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # Runs untimed after ``run``; raises CheckFailed, else returns a
    # JSON-serialisable record of the output for the digest.
    check: Callable[[object], object]
    stage: int = 0


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    rings: list  # ring specs the jobs compute over


def build(name: str, rc, seed: int) -> Workload:
    """The job list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    job_lists = {
        "solve": _solve,
        "theory": _theory,
        "codes": _codes,
    }
    jobs, specs = job_lists[name](rc, rng)
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"{name}: duplicate job names")
    rng.shuffle(jobs)
    jobs.sort(key=lambda job: job.stage)
    return Workload(name, jobs, specs)


# ---------------------------------------------------------------------------
# networks and expected verdicts
# ---------------------------------------------------------------------------


def relabel(net, rng: random.Random, network):
    """The same network with node, edge and message ids renamed at random."""

    def fresh(prefix: str, old: list[str]) -> dict[str, str]:
        order = list(range(len(old)))
        rng.shuffle(order)
        return {o: f"{prefix}{i:03d}" for o, i in zip(old, order)}

    nodes = fresh("v", list(net.nodes))
    edges = fresh("e", [e.id for e in net.edges])
    msgs = fresh("m", [m.id for m in net.messages])
    return network.Network(
        tuple(nodes[v] for v in net.nodes),
        tuple(network.Edge(edges[e.id], nodes[e.tail], nodes[e.head]) for e in net.edges),
        tuple(network.Message(msgs[m.id], nodes[m.source]) for m in net.messages),
        tuple(
            network.Receiver(nodes[r.node], tuple(msgs[d] for d in r.demands))
            for r in net.receivers
        ),
    )


def _prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def residue_field_sizes(spec, rings) -> list[int]:
    """Residue field size of every local factor of a catalog ring."""
    if isinstance(spec, rings.Product):
        return [q for f in spec.factors for q in residue_field_sizes(f, rings)]
    if isinstance(spec, rings.GaloisField):
        return [spec.p**spec.k]
    if isinstance(spec, (rings.PrimeField, rings.DualNumbers)):
        return [spec.p]
    return _prime_divisors(spec.n)


def choose_two_solvable(n: int, spec, rings) -> bool:
    return all(q >= n - 1 for q in residue_field_sizes(spec, rings))


def _check_code(network, net, code, spec):
    if code.ring != spec or not network.verify(net, code):
        raise CheckFailed("returned code fails verify")
    return network.code_to_json(code)


def _solve_job(rc, label: str, n: int, net, spec) -> Job:
    network = rc.network

    def run():
        return network.solve_brute(net, spec, budget=SOLVE_BUDGET)

    def check(code):
        want = choose_two_solvable(n, spec, rc.rings)
        if (code is not None) != want:
            raise CheckFailed(f"solvable={code is not None}, expected {want}")
        return None if code is None else _check_code(network, net, code, spec)

    return Job(label, run, check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _solve(rc, rng):
    cases = [(n, f"GF({q})", None) for q in FIELD_SIZES for n in FIELD_NS if not 4 <= q < n - 1]
    cases += [(n, ring, None) for n, ring in RING_ANCHORS]
    cases += [(n, ring, v) for n, ring in RING_CHEAP for v in range(RING_CHEAP_VARIANTS)]
    jobs, specs = [], {}
    for n, ring, variant in cases:
        if ring not in specs:
            specs[ring] = rc.rings.parse_ring(ring)
        net = relabel(rc.network.choose_two(n), rng, rc.network)
        label = f"choose_two({n}) over {ring}" + ("" if variant is None else f" #{variant}")
        jobs.append(_solve_job(rc, label, n, net, specs[ring]))
    return jobs, list(specs.values())


def load_maximal_partitions() -> dict[int, list[str]]:
    text = (Path(__file__).parent / "maximal_partitions.txt").read_text()
    rows = {}
    for line in text.splitlines():
        k, _, parts = line.partition(":")
        rows[int(k)] = parts.split()
    return rows


def _theory(rc, rng):
    partitions, dominance, cli = rc.partitions, rc.dominance, rc.cli
    expected = load_maximal_partitions()
    jobs = []

    for k in PARTITION_KS:

        def check(got, k=k):
            strs = [str(p) for p in got]
            if strs != expected[k]:
                raise CheckFailed(f"maximal partitions of {k} differ from the table")
            return strs

        jobs.append(Job(f"maximal_partitions({k})", lambda k=k: partitions.maximal_partitions(k), check))

    for argv, want in CLI_EXPECTED.items():

        def run(argv=argv):
            out = io.StringIO()
            return cli.run(list(argv), out=out), out.getvalue()

        def check(got, want=want):
            if got != (0, want):
                raise CheckFailed(f"cli output {got!r}, expected {(0, want)!r}")
            return got[1]

        jobs.append(Job("cli " + " ".join(argv), run, check))

    for factored in THEORY_SIZES:

        def check(got, factored=factored):
            per_prime = [[(p, s) for s in expected[k]] for p, k in factored]
            want = sorted(itertools.product(*per_prime))
            have = [tuple((p, str(ring.partition_for(p))) for p, _ in factored) for ring in got]
            if sorted(have) != want:
                raise CheckFailed("maximal rings differ from the maximal partitions")
            return have

        size = "*".join(f"{p}^{k}" for p, k in factored)
        jobs.append(
            Job(f"maximal_rings({size})", lambda f=factored: dominance.maximal_rings(list(f)), check)
        )

    specs = [rc.rings.parse_ring(text) for text in CATALOG]
    for (ls, left), (rs, right) in itertools.product(zip(CATALOG, specs), repeat=2):

        def run(left=left, right=right):
            verdict = dominance.catalog_dominates(left, right)
            return verdict, dominance.check_certificate(left, right, verdict)

        def check(got):
            verdict, certified = got
            relation = verdict.relation.name
            if relation != "UNKNOWN" and not certified:
                raise CheckFailed(f"{relation} verdict fails check_certificate")
            return relation

        jobs.append(Job(f"catalog_dominates({ls}, {rs})", run, check))
    return jobs, specs


def _codes(rc, rng):
    """Code construction, verification and transforms, with no search.

    Stage 0 builds verified codes into ``built``; stages 1 and 2 read them,
    so a wrong stage-0 answer also fails the jobs that depend on it.  The
    networks keep the labels that ``choose_two_field_solution`` gives them,
    so here the seed only orders the jobs within each stage.
    """
    rings, network = rc.rings, rc.network
    texts = BIG_FIELDS + ("GF(2^5)", "GF(13)", "D(13)", "Z(13)") + tuple(s for s, _ in INCLUSIONS)
    spec = {text: rings.parse_ring(text) for text in texts}
    product = rings.Product((spec["GF(2^8)"], spec["GF(3^5)"]))
    nets = {n: network.choose_two(n) for n in CODE_NS}
    net = nets[12]
    built: dict = {}
    jobs = []

    def store(key, ring, n=12):
        """Check a returned code over ``ring`` and keep it for later stages."""

        def check(code):
            record = _check_code(network, nets[n], code, ring)
            built[key] = code
            return record

        return check

    for field in BIG_FIELDS:
        for n in CODE_NS:
            jobs.append(
                Job(
                    f"choose_two_field_solution({n}, {field})",
                    lambda n=n, f=spec[field]: network.choose_two_field_solution(n, f),
                    store((field, n), spec[field], n),
                )
            )
    for field in ("GF(2^5)", "GF(13)"):
        jobs.append(
            Job(
                f"choose_two_field_solution(12, {field})",
                lambda f=spec[field]: network.choose_two_field_solution(12, f),
                store((field, 12), spec[field]),
            )
        )

    def must_be_true(got):
        if got is not True:
            raise CheckFailed("verify rejected a verified code")
        return got

    for field in BIG_FIELDS:
        jobs.append(
            Job(f"verify(12, {field})", lambda f=field: network.verify(net, built[(f, 12)]), must_be_true, 1)
        )

        def roundtrip(f=field):
            text = network.dump_json(network.code_to_json(built[(f, 12)]))
            return network.code_from_json(json.loads(text))

        def same_code(got, f=field):
            if got != built[(f, 12)]:
                raise CheckFailed("JSON round trip changed the code")
            return network.code_to_json(got)

        jobs.append(Job(f"json_roundtrip(12, {field})", roundtrip, same_code, 1))

    for src, dst in INCLUSIONS:

        def hom_laws(hom, src=spec[src], dst=spec[dst]):
            els = rings.elements(src)
            sample = [els[(7 * i + 1) % len(els)] for i in range(16)]
            if hom(rings.one(src)) != rings.one(dst) or hom.source != src or hom.target != dst:
                raise CheckFailed("inclusion has the wrong ends or misses one")
            for a, b in itertools.product(sample, repeat=2):
                if hom(rings.add(a, b)) != rings.add(hom(a), hom(b)) or hom(
                    rings.mul(a, b)
                ) != rings.mul(hom(a), hom(b)):
                    raise CheckFailed("inclusion breaks a ring law")
            return sorted(hom.table.items())

        jobs.append(
            Job(
                f"subring_inclusion({src}, {dst})",
                lambda s=spec[src], d=spec[dst]: rings.subring_inclusion(s, d),
                hom_laws,
                1,
            )
        )

    jobs.append(
        Job(
            "lift_subring(12, GF(2^5) -> GF(2^10))",
            lambda: network.lift_subring(net, built[("GF(2^5)", 12)], spec["GF(2^10)"]),
            store("lift GF(2^10)", spec["GF(2^10)"]),
            1,
        )
    )
    jobs.append(
        Job(
            "lift_subring(12, GF(13) -> D(13))",
            lambda: network.lift_subring(net, built[("GF(13)", 12)], spec["D(13)"]),
            store("lift D(13)", spec["D(13)"]),
            1,
        )
    )
    jobs.append(
        Job(
            "product_code(12, GF(2^8) x GF(3^5))",
            lambda: network.product_code(
                net,
                [(spec["GF(2^8)"], built[("GF(2^8)", 12)]), (spec["GF(3^5)"], built[("GF(3^5)", 12)])],
            ),
            store("product", product),
            1,
        )
    )
    jobs.append(
        Job(
            "map_code(12, mod GF(13) -> Z(13))",
            lambda: network.map_code(
                net, built[("GF(13)", 12)], rings.mod_reduction(spec["GF(13)"], spec["Z(13)"])
            ),
            store("mod", spec["Z(13)"]),
            1,
        )
    )
    for index, field in enumerate(("GF(2^8)", "GF(3^5)")):
        jobs.append(
            Job(
                f"map_code(12, proj {field})",
                lambda i=index: network.map_code(net, built["product"], rings.projection(product, i)),
                store(f"proj {field}", spec[field]),
                2,
            )
        )
    jobs.append(
        Job(
            "map_code(12, aug D(13) -> GF(13))",
            lambda: network.map_code(net, built["lift D(13)"], rings.dual_augmentation(13)),
            store("aug", spec["GF(13)"]),
            2,
        )
    )
    specs = [spec[text] for text in BIG_FIELDS] + [
        spec[text] for text in ("GF(2^5)", "GF(13)", "D(13)", "Z(13)")
    ] + [product]
    return jobs, specs
