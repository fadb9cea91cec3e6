"""Network model, codes, transfer vectors, solving, and transforms."""

import io
import itertools
import json
import math
import random
import time

import pytest

from netcorpus import corpus, relay_chain
from ring_oracle import oracle_is_unit, oracle_ops
from search_oracle import decode as oracle_decode
from search_oracle import decode_on_elements, element_ops, first_decoders
from search_oracle import defects as oracle_defects
from search_oracle import kahn_order as sorted_kahn_order
from search_oracle import search_plan
from search_oracle import layout as named_layout
from search_oracle import transfer as oracle_transfer
from search_oracle import unit as oracle_unit
from search_oracle import verify as oracle_verify
from search_oracle import search as plain_search
from ringcode import cli
from ringcode import network as network_mod
from ringcode import rings as rings_mod
from ringcode.errors import BudgetExceeded, GuardExceeded
from ringcode.network import (
    Edge,
    Message,
    Network,
    Receiver,
    ScalarLinearCode,
    TransferVector,
    choose_two,
    choose_two_field_solution,
    code_from_json,
    code_to_json,
    decode_search,
    lift_subring,
    map_code,
    network_from_json,
    network_to_json,
    product_code,
    solve_brute,
    transfer,
    two_six,
    validate,
    verify,
)
from ringcode.rings import (
    DualNumbers,
    GaloisField,
    IntegersMod,
    PrimeField,
    Product,
    RingElement,
    add,
    crt,
    dual_augmentation,
    element,
    elements,
    galois_field,
    inverse,
    mod_reduction,
    mul,
    neg,
    one,
    parse_ring,
    projection,
    ring_size,
    zero,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = galois_field(2, 2)
GF5 = PrimeField(5)
GF8 = galois_field(2, 3)
Z4 = IntegersMod(4)
Z8 = IntegersMod(8)
Z9 = IntegersMod(9)
Z6 = IntegersMod(6)
D2 = DualNumbers(2)


@pytest.fixture
def cold_memo():
    """Every ring's search memo empty, as after a fresh import, so a test
    that counts the search's work does not see what earlier tests left."""
    network_mod._search_memo.cache_clear()


def _inputs(net, node):
    """A node's inputs: ("msg", id) entries first, then ("edge", id)."""
    return named_layout(net)[1][node]


class TestValidate:
    @pytest.mark.parametrize("seed", range(4))
    def test_topological_order_matches_the_sorted_kahn_oracle(self, seed):
        """Random DAGs with parallel edges, and cyclic graphs (self-loops and
        back edges), some with unknown endpoints or a repeated node id."""
        rng = random.Random(seed)
        outcomes = []
        for _ in range(300):
            names = rng.sample([f"n{i:02d}" for i in range(40)], rng.randrange(1, 12))
            rank = {v: i for i, v in enumerate(rng.sample(names, len(names)))}
            back = rng.random() < 0.3  # else every edge runs forward in rank
            edges = []
            for i in range(rng.randrange(3 * len(names))):
                a, b = rng.choice(names), rng.choice(names)
                if not back and rank[a] >= rank[b]:
                    a, b = b, a
                    if a == b:
                        continue
                edges.append(Edge(f"e{i:02d}", a, b))
            edges += [Edge(f"p{i}", e.tail, e.head) for i, e in enumerate(edges[: rng.randrange(3)])]
            if rng.random() < 0.1:
                edges.append(Edge("u", names[0], "unknown"))
            if rng.random() < 0.05:
                names.append(names[0])
            net = Network(tuple(names), tuple(rng.sample(edges, len(edges))), (), ())
            want = sorted_kahn_order(net)
            assert network_mod._Plan(net).order == want
            outcomes.append(want is None)
        assert any(outcomes) and not all(outcomes)

    def test_generators_are_valid(self):
        for n in (2, 3, 4, 5):
            assert validate(choose_two(n)) == []
        for net in corpus():
            assert validate(net) == []

    def test_cycle(self):
        net = Network(
            ("a", "b"),
            (Edge("e1", "a", "b"), Edge("e2", "b", "a")),
            (Message("x", "a"),),
            (),
        )
        assert any("cycle" in d for d in validate(net))

    def test_unknown_demand(self):
        net = Network(
            ("s", "r"),
            (Edge("e1", "s", "r"),),
            (Message("x", "s"),),
            (Receiver("r", ("z",)),),
        )
        assert any("unknown demand" in d for d in validate(net))

    def test_unknown_endpoint(self):
        net = Network(("s",), (Edge("e1", "s", "t"),), (Message("x", "s"),), ())
        assert any("unknown head" in d for d in validate(net))


def _random_network(rng):
    """A valid network with messages at several nodes, parallel edges, nodes
    without inputs, receivers with partial or no demands, and ids in random
    order, so that id order, Kahn order and tuple order all differ."""
    names = rng.sample([f"n{i:02d}" for i in range(30)], rng.randint(2, 9))
    edges = []
    for k in rng.sample(range(50), rng.randint(0, 14)):
        a, b = sorted(rng.sample(range(len(names)), 2))
        edges.append(Edge(f"e{k:02d}", names[a], names[b]))
    msgs = [Message(f"m{j}", rng.choice(names[:-1])) for j in rng.sample(range(9), rng.randint(0, 3))]
    receivers = [Receiver(node, tuple(rng.sample([m.id for m in msgs], rng.randint(0, len(msgs)))))
                 for node in rng.sample(names, rng.randint(0, len(names)))]
    return Network(tuple(rng.sample(names, len(names))), tuple(edges), tuple(msgs), tuple(receivers))


def _broken(net, rng):
    """net with one to three defects of the kinds validate names."""
    nodes, edges, msgs, receivers = list(net.nodes), list(net.edges), list(net.messages), list(net.receivers)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(9)
        if kind == 0:
            nodes.append(rng.choice(nodes))
        elif kind == 1 and edges:
            edges.append(Edge(rng.choice(edges).id, rng.choice(nodes), "zz"))
        elif kind == 2 and msgs:
            msgs.append(Message(rng.choice(msgs).id, rng.choice(nodes)))
        elif kind == 3:
            edges.append(Edge("ut", "nowhere", rng.choice(nodes)))
        elif kind == 4:
            edges.append(Edge("uh", rng.choice(nodes), "nowhere"))
        elif kind == 5:
            msgs.append(Message("mu", "nowhere"))
        elif kind == 6:
            receivers.append(Receiver("nowhere", ()))
        elif kind == 7:
            receivers.append(Receiver(rng.choice(nodes), ("unknown",)))
        else:  # a cycle: a self-loop or an edge back against a path
            a = rng.choice(edges) if edges else Edge("", nodes[0], nodes[0])
            edges.append(Edge(f"back{len(edges)}", a.head, a.tail))
    return Network(tuple(nodes), tuple(rng.sample(edges, len(edges))), tuple(msgs), tuple(receivers))


class TestPlanParity:
    """network._Plan, the one-walk compile, against the search oracle's
    compile as it ran before: the same Kahn order, edge order, slots, inputs,
    carried sources and per-depth receiver checks on valid networks, and the
    same defects, in the same words and order, on invalid ones."""

    @staticmethod
    def _assert_same_plan(net):
        plan = network_mod._Plan(net)
        edges, inputs_of = named_layout(net)
        assert plan.defects == [] and plan.order == sorted_kahn_order(net)
        assert plan.edges == edges and list(plan.msg_slot) == net.message_ids()
        base = len(plan.msg_slot) + 1
        name = [("msg", m) for m in plan.msg_slot] + [("zero", "")] + [("edge", e.id) for e in plan.edges]
        assert list(plan.msg_slot.values()) == list(range(base - 1))
        assert {n: [name[s] for s in plan.inputs[n]] for n in net.nodes} == inputs_of
        searched, forms, ready = search_plan(net)
        assert plan.searched == [(base + edges.index(e), e) for e in searched]
        assert {n: [name[s] for s in src] for n, src in plan.search.sources.items()} == forms
        assert len(plan.search.checks) == len(searched) + 1
        for depth, level in enumerate(plan.search.checks):  # ready counts depth from -1
            groups: dict = {}  # a check two receivers share is made once
            for r in ready.get(depth - 1, []):
                groups.setdefault((tuple(("msg", d) for d in r.demands), tuple(forms[r.node])), []).append(r)
            got = [((tuple(name[s] for s in demands), tuple(name[s] for s in rows)), rs) for demands, rows, rs in level]
            assert got == list(groups.items())

    def test_corpus_and_generators(self):
        for net in corpus() + [choose_two(n) for n in range(2, 9)]:
            self._assert_same_plan(net)

    def test_random_networks(self):
        rng = random.Random(24)
        for _ in range(400):
            self._assert_same_plan(_random_network(rng))

    def test_relabelled_and_fan_networks(self):
        rng = random.Random(25)
        for n in range(2, 10):
            self._assert_same_plan(TestIndexKernel._relabelled(choose_two(n), rng))
        for sources in (1, 2, 2):
            for _ in range(40):
                self._assert_same_plan(TestIndexKernel._fan_network(rng, sources))

    def test_invalid_networks_raise_the_same_text(self):
        rng = random.Random(26)
        kinds = dict.fromkeys(["duplicate node", "duplicate edge", "duplicate message", "unknown tail", "unknown head",
                               "unknown source", "receiver at unknown node", "unknown demand", "directed cycle"], 0)
        for _ in range(400):
            net = _broken(_random_network(rng) if rng.random() < 0.7 else choose_two(rng.randint(2, 4)), rng)
            want = oracle_defects(net)
            assert validate(net) == want and want
            with pytest.raises(ValueError) as exc:
                verify(net, ScalarLinearCode(GF2, {}, {}))
            assert str(exc.value) == "invalid network: " + "; ".join(want)
            assert network_mod._Plan(net).order == sorted_kahn_order(net)
            for kind in kinds:
                kinds[kind] += any(kind in d for d in want)
        assert all(kinds.values()), kinds


class TestGenerators:
    @pytest.mark.parametrize("n,receivers", [(2, 1), (4, 6), (5, 10)])
    def test_receiver_counts(self, n, receivers):
        assert len(choose_two(n).receivers) == receivers

    def test_two_six_shape(self):
        net = two_six()
        assert sum(1 for e in net.edges if e.tail == "s") == 4
        assert len(net.receivers) == 6
        assert validate(net) == []

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            choose_two(13)
        with pytest.raises(ValueError):
            choose_two(1)

    def test_choose_two_is_built_once_per_n(self):
        # every caller shares one frozen Network; refusals are not cached
        assert choose_two(5) is choose_two(5) and two_six() is choose_two(4)
        assert choose_two(5) == choose_two.__wrapped__(5)
        for _ in range(2):
            with pytest.raises(GuardExceeded):
                choose_two(13)
            with pytest.raises(ValueError):
                choose_two(1)


class TestTransfer:
    def test_identity_relay(self):
        net = Network(
            ("s", "r"),
            (Edge("e1", "s", "r"),),
            (Message("x", "s"), Message("y", "s")),
            (Receiver("r", ("x",)),),
        )
        code = ScalarLinearCode(
            GF3, {"e1": (one(GF3), zero(GF3))}, {}
        )
        vec = transfer(net, code)["e1"]
        assert vec.coefficients["x"] == one(GF3)
        assert vec.coefficients["y"] == zero(GF3)

    def test_composition_over_gf3(self):
        # lambda = 2x + y, then mu = 2*lambda: mu = x + 2y
        net = Network(
            ("s", "a", "b"),
            (Edge("e1", "s", "a"), Edge("e2", "a", "b")),
            (Message("x", "s"), Message("y", "s")),
            (Receiver("b", ("x",)),),
        )
        code = ScalarLinearCode(
            GF3,
            {
                "e1": (RingElement(GF3, 2), RingElement(GF3, 1)),
                "e2": (RingElement(GF3, 2),),
            },
            {},
        )
        vec = transfer(net, code)["e2"]
        assert vec.coefficients["x"].payload == 1
        assert vec.coefficients["y"].payload == 2

    def test_zero_code(self):
        net = choose_two(2)
        code = ScalarLinearCode(
            GF2,
            {e.id: tuple(zero(GF2) for _ in range(2 if e.tail == "s" else 1)) for e in net.edges},
            {},
        )
        for vec in transfer(net, code).values():
            assert all(v == zero(GF2) for v in vec.coefficients.values())

    def test_arity_mismatch(self):
        net = choose_two(2)
        code = ScalarLinearCode(GF2, {e.id: (one(GF2),) for e in net.edges}, {})
        with pytest.raises(ValueError):
            transfer(net, code)

    def test_linearity_against_pointwise_evaluation(self):
        """Transfer vectors must reproduce edge-by-edge evaluation of the
        network on concrete message tuples (exhaustive for tiny rings,
        sampled otherwise)."""
        rng = random.Random(7)
        specs = [GF2, GF3, Z4, D2, GF4, Z6, Product((GF2, GF3)), IntegersMod(16)]
        for spec in specs:
            net = random.Random(3).choice(corpus())
            els = elements(spec)
            code = ScalarLinearCode(
                spec,
                {
                    e.id: tuple(
                        rng.choice(els)
                        for _ in _inputs(net, e.tail)
                    )
                    for e in net.edges
                },
                {},
            )
            vectors = transfer(net, code)
            msg_ids = net.message_ids()
            size = len(els)
            if size <= 4:
                tuples = list(itertools.product(els, repeat=len(msg_ids)))
            else:
                tuples = [
                    tuple(rng.choice(els) for _ in msg_ids) for _ in range(20)
                ]
            for values in tuples:
                assignment = dict(zip(msg_ids, values))
                evaluated = _evaluate_pointwise(net, code, assignment)
                for eid, vec in vectors.items():
                    want = zero(spec)
                    for m in msg_ids:
                        want = add(want, mul(vec.coefficients[m], assignment[m]))
                    assert evaluated[eid] == want


def _evaluate_pointwise(net, code, assignment):
    """Independent oracle: run the network forward on concrete symbols."""
    order = {}
    remaining = {e.id: e for e in net.edges}
    values = {}
    while remaining:
        progressed = False
        for eid in sorted(remaining):
            e = remaining[eid]
            inputs = _inputs(net, e.tail)
            if any(kind == "edge" and ref not in values for kind, ref in inputs):
                continue
            acc = zero(code.ring)
            for c, (kind, ref) in zip(code.edge_coeffs[eid], inputs):
                v = assignment[ref] if kind == "msg" else values[ref]
                acc = add(acc, mul(c, v))
            values[eid] = acc
            del remaining[eid]
            progressed = True
            break
        assert progressed, "stuck evaluation on an acyclic network"
    return values


class TestDecodeSearch:
    def test_unit_rows(self):
        rows = [
            TransferVector({"x": one(GF2), "y": zero(GF2)}),
            TransferVector({"x": zero(GF2), "y": one(GF2)}),
        ]
        assert decode_search(rows, ["x"], GF2) == ((one(GF2), zero(GF2)),)
        assert decode_search(rows, ["y", "x"], GF2) == ((zero(GF2), one(GF2)), (one(GF2), zero(GF2)))
        assert decode_search([], [], GF2) == () and decode_search([], ["x"], GF2) is None

    def test_rejects_unknown_demand_and_rows_over_other_messages(self):
        rows = [TransferVector({"x": one(GF3), "y": zero(GF3)})]
        for demands in (["z"], ["x", "z"]):
            with pytest.raises(ValueError, match="unknown demand z"):
                decode_search(rows, demands, GF3)
        for other in ({"x": one(GF3), "z": zero(GF3)}, {"x": one(GF3)}):
            with pytest.raises(ValueError, match="row 1"):
                decode_search(rows + [TransferVector(other)], ["x"], GF3)
        with pytest.raises(ValueError, match="unknown demand z"):
            decode_search([TransferVector({"x": one(Z4)})], ["z"], Z4)

    def test_gf3_example(self):
        rows = [
            TransferVector({"x": RingElement(GF3, 1), "y": RingElement(GF3, 1)}),
            TransferVector({"x": RingElement(GF3, 1), "y": RingElement(GF3, 2)}),
        ]
        (got,) = decode_search(rows, ["y"], GF3)
        assert tuple(c.payload for c in got) == (2, 1)

    def test_z4_nonunit(self):
        rows = [TransferVector({"x": RingElement(Z4, 2), "y": zero(Z4)})]
        assert decode_search(rows, ["x"], Z4) is None

    def test_nonfield_first_hit_order(self):
        rows = [
            TransferVector({"x": RingElement(Z8, 1), "y": zero(Z8)}),
            TransferVector({"x": zero(Z8), "y": RingElement(Z8, 1)}),
        ]
        (got,) = decode_search(rows, ["x"], Z8)
        # canonical order scans (0,0), (0,1), ... so (1,0) is the first hit
        assert tuple(c.payload for c in got) == (1, 0)
        # two copies of x: the first input is the most significant over
        # Z(p^k), the last over a field
        for spec, want in ((Z8, (0, 1)), (GF3, (1, 0))):
            rows = [TransferVector({"x": one(spec), "y": zero(spec)})] * 2
            assert tuple(c.payload for c in decode_search(rows, ["x"], spec)[0]) == want

    def test_rejects_other_rings(self):
        for spec in (Z6, D2, Product((GF2, GF2))):
            rows = [TransferVector({"x": one(spec)})]
            with pytest.raises(ValueError):
                decode_search(rows, ["x"], spec)

    def test_rejects_a_row_entry_from_another_ring(self):
        # rows of the right shape over a ring equal to spec are accepted
        for spec, other, twin in ((GF3, IntegersMod(3), PrimeField(3)), (GF4, D2, GaloisField(2, 2))):
            rows = [TransferVector({"x": one(spec), "y": zero(spec)}), TransferVector({"x": zero(spec), "y": one(spec)})]
            for i, m in itertools.product(range(2), "xy"):
                for ring, raises in ((other, True), (twin, False)):
                    moved = [TransferVector(dict(r.coefficients)) for r in rows]
                    moved[i].coefficients[m] = RingElement(ring, rows[i].coefficients[m].payload)
                    if raises:
                        with pytest.raises(ValueError, match="different rings"):
                            decode_search(moved, ["x", "y"], spec)
                    else:
                        assert decode_search(moved, ["x", "y"], spec) == decode_search(rows, ["x", "y"], spec)

    @staticmethod
    def _rows(spec, entries):
        msgs = ("x", "y", "z")[: len(entries[0])]
        return [
            TransferVector({m: RingElement(spec, a) for m, a in zip(msgs, row)})
            for row in entries
        ]

    def test_more_than_four_inputs(self):
        # 64^5 and 32^6 candidate decoders, too many to enumerate; the first
        # hits start with zeros, so the oracle still reaches them early
        cases = [
            (IntegersMod(64), [(16, 0), (0, 8), (7, 16), (5, 35), (15, 55)],
             {"x": (0, 0, 1, 17, 11), "y": (0, 0, 1, 16, 7)}),
            (IntegersMod(32), [(16, 0), (8, 16), (0, 16), (7, 20), (6, 6), (11, 25)],
             {"x": (0, 0, 0, 3, 0, 4), "y": (0, 0, 0, 3, 3, 11)}),
        ]
        for spec, entries, want in cases:
            rows = self._rows(spec, entries)
            got = decode_search(rows, list(want), spec)
            for cs, (target, first) in zip(got, want.items()):
                assert tuple(c.payload for c in cs) == first
                assert cs == oracle_decode(rows, target, spec)

    def test_elimination_agrees_with_exhaustion(self):
        """decode_search must return exactly the exhaustive first hit, in
        the coordinate order of its normal form, on random systems with
        non-units, zero and duplicate rows, and more rows than messages."""
        rng = random.Random(11)
        rings = ("Z(4)", "Z(8)", "Z(9)", "Z(25)", "Z(27)",
                 "GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)")
        for ring in rings:
            spec = parse_ring(ring)
            els = elements(spec)
            found = 0
            for _ in range(60):
                msgs = ["x", "y", "z"][: rng.randint(1, 3)]
                n_rows = rng.randint(1, max(1, min(5, int(math.log(3000, len(els))))))
                rows = []
                for _ in range(n_rows):
                    kind = rng.random()
                    if kind < 0.15 and rows:
                        rows.append(rng.choice(rows))  # duplicate
                    elif kind < 0.25:
                        rows.append(TransferVector(dict.fromkeys(msgs, zero(spec))))
                    else:
                        rows.append(TransferVector({m: rng.choice(els) for m in msgs}))
                target = rng.choice(msgs)
                (got,) = decode_search(rows, [target], spec) or (None,)
                assert got == oracle_decode(rows, target, spec), (ring, rows, target)
                found += got is not None
            assert 0 < found < 60, ring
        # targets unreachable at a message column: every row is zero there,
        # or a non-unit over Z(p^k), so elimination stops at that column
        for ring in ("GF(4)", "Z(8)", "Z(9)"):
            spec = parse_ring(ring)
            els = elements(spec)
            short = [zero(spec)] if ring == "GF(4)" else [a for a in els if math.gcd(a.payload, len(els)) > 1]
            outcomes = set()
            for _ in range(40):
                msgs = ["x", "y", "z"][: rng.randint(2, 3)]
                cut = rng.choice(msgs)
                rows = [
                    TransferVector({m: rng.choice(short if m == cut else els) for m in msgs})
                    for _ in range(rng.randint(1, 3))
                ]
                demands = rng.sample(msgs, rng.randint(1, len(msgs)))
                want = [oracle_decode(rows, d, spec) for d in demands]
                want = None if None in want else tuple(want)
                assert decode_search(rows, demands, spec) == want, (ring, rows, demands)
                assert cut not in demands or want is None
                outcomes.add((cut in demands, want is None))
            assert outcomes == {(True, True), (False, True), (False, False)}, ring

    def test_one_call_per_receiver(self, monkeypatch, cold_memo):
        # a receiver's demands share one elimination of its rows
        calls = []

        def counted(name):
            real = getattr(network_mod, name)
            monkeypatch.setattr(network_mod, name, lambda *a: calls.append(name) or real(*a))

        counted("decode_search")
        counted("_first_decoders")
        assert solve_brute(choose_two(3), Z4) is not None
        assert calls.count("decode_search") == 3  # three receivers, two demands each
        calls.clear()
        choose_two_field_solution(4, GF4)
        assert calls == ["decode_search", "_first_decoders"] * 6

    def test_every_receiver_matches_the_oracle(self):
        # each receiver of the corpus and of two-six, under random codes
        rng = random.Random(5)
        for ring in ("Z(4)", "Z(8)", "Z(9)", "Z(25)", "Z(27)",
                     "GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)"):
            spec = parse_ring(ring)
            els = elements(spec)
            for net in corpus() + [two_six()]:
                inputs_of = named_layout(net)[1]
                code = ScalarLinearCode(
                    spec,
                    {e.id: tuple(rng.choice(els) for _ in inputs_of[e.tail]) for e in net.edges},
                    {},
                )
                vectors = transfer(net, code)
                units = {m: oracle_unit(m, net.message_ids(), spec) for m in net.message_ids()}
                for recv in net.receivers:
                    rows = [units[ref] if kind == "msg" else vectors[ref] for kind, ref in inputs_of[recv.node]]
                    want = [oracle_decode(rows, d, spec) for d in recv.demands]
                    want = None if None in want else tuple(want)
                    assert decode_search(rows, recv.demands, spec) == want


class TestKernelEquivalence:
    """network._first_decoders, which reduces its rows in place with the
    record's scalar add and mul, gives what the kernel gave before it
    (search_oracle.first_decoders: new tuples per column through plus and
    scaled) on seeded systems, and on the small ones what the exhaustive
    decode gives."""

    RINGS = ("GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(11)", "GF(13)", "GF(16)",
             "Z(4)", "Z(8)", "Z(9)", "Z(27)", "GF(2^13)")
    SYSTEMS = 2000
    EXHAUSTIVE = 200  # systems per ring also checked against decode, of at most 64 decoders each

    @classmethod
    def _systems(cls, ops, values, rng):
        """SYSTEMS seeded (rows, targets, picks) over ops's zero and one: 1-4
        rows over 1-3 messages, some zero or repeating an earlier row, entries
        zero one time in four; 1-3 targets, each the unit vector of message
        picks[i] or, where picks[i] is None, a random vector."""
        for _ in range(cls.SYSTEMS):
            width = rng.randint(1, 3)

            def vector():
                return tuple(ops.zero if rng.random() < 0.25 else rng.choice(values) for _ in range(width))

            rows = []
            for _ in range(rng.randint(1, 4)):
                roll = rng.random()
                rows.append(rng.choice(rows) if roll < 0.1 and rows else
                            (ops.zero,) * width if roll < 0.15 else vector())
            picks = [rng.randrange(width) if rng.random() < 0.7 else None for _ in range(rng.randint(1, 3))]
            targets = [vector() if i is None else tuple(ops.one if k == i else ops.zero for k in range(width))
                       for i in picks]
            yield rows, targets, picks

    @pytest.mark.parametrize("ring", RINGS)
    def test_same_decoders_as_the_reference_kernel(self, ring):
        # on the ring's values (_domain), and through decode_search, whose
        # GF(p), Z(p^k) and GF(2^13) cases run on the public add and mul
        spec = parse_ring(ring)
        d, els = network_mod._domain(spec), elements(spec)
        values, rng = [d.encode(a) for a in els], random.Random(ring)
        outcomes, exhaustive = set(), 0
        for rows, targets, picks in self._systems(d, values, rng):
            want = first_decoders(rows, targets, d)
            assert network_mod._first_decoders(rows, targets, d) == want, (rows, targets)
            outcomes.add(want is None)
            if None in picks:
                continue
            msgs = "xyz"[: len(rows[0])]
            vectors = [TransferVector({m: d.decode(x) for m, x in zip(msgs, row)}) for row in rows]
            demands = [msgs[i] for i in picks]
            expect = None if want is None else tuple(tuple(map(d.decode, cs)) for cs in want)
            assert decode_search(vectors, demands, spec) == expect, (rows, demands)
            if len(els) ** len(rows) <= 64 and exhaustive < self.EXHAUSTIVE:
                found = [oracle_decode(vectors, m, spec) for m in demands]
                assert expect == (None if None in found else tuple(found)), (rows, demands)
                exhaustive += 1
        assert outcomes == {True, False}
        assert exhaustive == (0 if len(els) > 64 else self.EXHAUSTIVE)

    def test_element_path_above_the_table_limit(self):
        # both kernels on RingElement values through the public operations
        spec = parse_ring("GF(2^13)")
        ops, els, outcomes = element_ops(spec), elements(spec), set()
        for rows, targets, _ in self._systems(ops, els, random.Random(13)):
            want = first_decoders(rows, targets, ops)
            assert network_mod._first_decoders(rows, targets, ops) == want, (rows, targets)
            outcomes.add(want is None)
        assert outcomes == {True, False}


class TestVerify:
    def test_structured_solution(self):
        net = choose_two(3)
        code = choose_two_field_solution(3, GF2)
        lam = {e: tuple(c.payload for c in code.edge_coeffs[e]) for e in ("lam01", "lam02", "lam03")}
        assert lam == {"lam01": (0, 1), "lam02": (1, 0), "lam03": (1, 1)}
        assert verify(net, code)

    def test_zero_code_fails(self):
        net = choose_two(3)
        code = ScalarLinearCode(
            GF2,
            {
                e.id: tuple(zero(GF2) for _ in _inputs(net, e.tail))
                for e in net.edges
            },
            {},
        )
        assert not verify(net, code)

    def test_missing_decoder_fails(self):
        net = choose_two(3)
        code = choose_two_field_solution(3, GF2)
        broken = ScalarLinearCode(GF2, code.edge_coeffs, dict(code.decoders))
        del broken.decoders[("r01x02", "x")]
        assert not verify(net, broken)


class TestCoefficientOwnership:
    """verify and transfer fetch the ring's arithmetic once per call and
    check each coefficient's ring once; the other ring of each pair has
    payloads of the same shape, so only that check can tell them apart."""

    PAIRS = [(GF3, IntegersMod(3)), (GF4, D2), (Z4, GaloisField(2, 2))]

    @staticmethod
    def _code(spec):
        net = choose_two(3)
        code = solve_brute(net, spec)
        assert code is not None and code.ring == spec
        return net, code

    @staticmethod
    def _swapped(coeffs, i, other):
        return coeffs[:i] + (RingElement(other, coeffs[i].payload),) + coeffs[i + 1:]

    @pytest.mark.parametrize("spec, other", PAIRS)
    def test_wrong_ring_edge_coefficient_raises(self, spec, other):
        net, code = self._code(spec)
        for e, coeffs in code.edge_coeffs.items():
            for i in range(len(coeffs)):
                edges = {**code.edge_coeffs, e: self._swapped(coeffs, i, other)}
                bad = ScalarLinearCode(spec, edges, code.decoders)
                with pytest.raises(ValueError, match="different rings"):
                    transfer(net, bad)
                with pytest.raises(ValueError, match="different rings"):
                    verify(net, bad)

    @pytest.mark.parametrize("spec, other", PAIRS)
    def test_wrong_ring_decoder_coefficient_raises(self, spec, other):
        net, code = self._code(spec)
        assert verify(net, code)
        for key, coeffs in code.decoders.items():
            for i in range(len(coeffs)):
                decoders = {**code.decoders, key: self._swapped(coeffs, i, other)}
                with pytest.raises(ValueError, match="different rings"):
                    verify(net, ScalarLinearCode(spec, code.edge_coeffs, decoders))

    @pytest.mark.parametrize("spec, twin", [
        (GF3, PrimeField(3)), (GF4, GaloisField(2, 2)), (Z4, IntegersMod(4)),
        (Product((GF2, GF3)), Product((PrimeField(2), PrimeField(3)))),
    ])
    def test_equal_ring_of_another_object_is_accepted(self, spec, twin):
        net, code = self._code(spec)
        assert twin == code.ring and twin is not code.ring
        retyped = {e: tuple(RingElement(twin, c.payload) for c in cs) for e, cs in code.edge_coeffs.items()}
        decoders = {k: tuple(RingElement(twin, c.payload) for c in cs) for k, cs in code.decoders.items()}
        for ring, edges, decs in ((code.ring, retyped, decoders), (twin, code.edge_coeffs, code.decoders)):
            mixed = ScalarLinearCode(ring, edges, decs)
            assert transfer(net, mixed) == transfer(net, code)
            assert verify(net, mixed)


    @pytest.mark.parametrize("spec", [GF3, GF4, Z4, D2, Product((GF2, GF3))], ids=str)
    def test_relay_coefficient_built_outside_rings(self, spec):
        """verify passes a relay's input through when its coefficient equals
        one; a coefficient equal to one(spec) but built apart from it gives the
        same answers, on a code that decodes and on one that does not."""
        net, code = self._code(spec)
        fresh = RingElement(spec, one(spec).payload)
        assert fresh == one(spec) and fresh is not one(spec)
        relays = {e: (fresh,) if cs == (one(spec),) else cs for e, cs in code.edge_coeffs.items()}
        assert sum(cs[0] is fresh for cs in relays.values()) == 6  # the a and b edges of choose_two(3)
        key = next(iter(code.decoders))
        broken = {**code.decoders, key: (zero(spec),) * len(code.decoders[key])}
        for decoders, want in ((code.decoders, True), (broken, False)):
            shared, built = (ScalarLinearCode(spec, edges, decoders) for edges in (code.edge_coeffs, relays))
            assert transfer(net, built) == transfer(net, shared)
            assert verify(net, built) is verify(net, shared) is want


class TestVerifyParity:
    """_verify against the oracle verify on solved codes and on forged ones:
    a coefficient over another ring on a relay edge, on a combining edge and
    in a decoder, coefficient lists of the wrong length or missing, a missing
    decoder and wrong values, alone and two at a time.  Each case must give
    the same bool or a ValueError with the same text."""

    # each ring with another whose payloads have the same shape, so only the
    # owner check tells a forged coefficient apart
    PAIRS = [(GF3, IntegersMod(3)), (GF4, D2), (GF5, IntegersMod(5)), (Z4, GaloisField(2, 2)), (D2, GF4),
             (Product((GF2, GF3)), Product((IntegersMod(2), IntegersMod(3))))]

    @staticmethod
    def _outcome(check):
        try:
            return check()
        except ValueError as exc:
            return str(exc)

    @staticmethod
    def _faults(net, code, other, rng):
        """(name, forge) pairs; forge(code) gives a copy of code with one fault."""
        inputs_of = named_layout(net)[1]
        relays = [e.id for e in net.edges if len(inputs_of[e.tail]) == 1]
        combining = [e.id for e in net.edges if len(inputs_of[e.tail]) >= 2]
        keys, els = sorted(code.decoders), elements(code.ring)

        def edit(table, key, make):
            def forge(c):  # a list an earlier fault removed stays removed
                edges, decoders = dict(c.edge_coeffs), dict(c.decoders)
                target = edges if table == "edge" else decoders
                if key in target and (new := make(target[key])) is None:
                    del target[key]
                elif key in target:
                    target[key] = new
                return ScalarLinearCode(c.ring, edges, decoders)
            return forge

        def foreign(cs):
            i = rng.randrange(len(cs) or 1)
            return cs[:i] + tuple(RingElement(other, c.payload) for c in cs[i:i + 1]) + cs[i + 1:]

        def value(cs):
            i = rng.randrange(len(cs) or 1)
            return cs[:i] + tuple(rng.choice(els) for _ in cs[i:i + 1]) + cs[i + 1:]

        out = []
        for e in rng.sample(relays, min(3, len(relays))):
            out += [("foreign relay", edit("edge", e, foreign)), ("relay value", edit("edge", e, value))]
        for e in rng.sample(combining, min(2, len(combining))):
            out += [("foreign combining", edit("edge", e, foreign)), ("combining value", edit("edge", e, value)),
                    ("edge too short", edit("edge", e, lambda cs: cs[1:]))]
        for e in rng.sample([e.id for e in net.edges], 2):
            out += [("edge too long", edit("edge", e, lambda cs: cs + cs[:1] + (one(code.ring),))),
                    ("edge missing", edit("edge", e, lambda cs: None))]
        for k in rng.sample(keys, min(4, len(keys))):
            out += [("foreign decoder", edit("decoder", k, foreign)), ("decoder value", edit("decoder", k, value)),
                    ("decoder arity", edit("decoder", k, lambda cs: cs + (zero(code.ring),))),
                    ("decoder missing", edit("decoder", k, lambda cs: None))]
        return out

    @pytest.mark.parametrize("spec, other", PAIRS, ids=str)
    def test_forged_codes(self, spec, other):
        rng = random.Random(ring_size(spec))
        nets = corpus() + [choose_two(3), TestIndexKernel._relabelled(choose_two(4), rng)]
        seen = {}
        for net in nets:
            if (code := solve_brute(net, spec)) is None:
                continue
            plan = network_mod._layout(net)
            assert network_mod._verify(plan, code) is oracle_verify(net, code) is True
            faults = self._faults(net, code, other, rng)
            pairs = [(a, b) for a, b in zip(faults, rng.sample(faults, len(faults))) if a is not b]
            for (name, forge), *rest in [[f] for f in faults] + pairs:
                forged = forge(code)
                for _, more in rest:
                    forged = more(forged)
                got = self._outcome(lambda: network_mod._verify(plan, forged))
                assert got == self._outcome(lambda: oracle_verify(net, forged)), (name, rest, net.nodes)
                if not rest:
                    seen.setdefault(name, set()).add(got if isinstance(got, bool) else got.split(":")[-1])
        assert seen["foreign relay"] == seen["foreign combining"] == seen["foreign decoder"] == {
            "elements belong to different rings"}
        assert seen["edge missing"] == seen["edge too long"] == {" coefficient arity mismatch"}
        assert seen["decoder missing"] == {False} and {True, False} <= seen["decoder value"]
        assert all(o.startswith(" decoder arity mismatch for ") for o in seen["decoder arity"])


class TestLogDomain:
    """Table fields verify and decode on discrete logarithms (network._domain
    over the field's record rings.arithmetic), checked against oracles: the
    payload arithmetic of ring_oracle, the public, checked add and mul
    (search_oracle.verify, search_oracle.decode) and the element kernel
    decode_search ran before (decode_on_elements)."""

    FIELDS = ["GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(2^8)", "GF(3^5)"]

    @staticmethod
    def _values(spec):
        """Every element for q <= 16, else zero, one, -1 and 29 seeded others."""
        els = elements(spec)
        if len(els) <= 16:
            return els
        return [zero(spec), one(spec), neg(one(spec))] + random.Random(len(els)).sample(els[1:], 29)

    @staticmethod
    def _other(spec):
        """A ring other than spec whose payloads have the same shape."""
        return GaloisField(3 if spec.p == 2 else 2, spec.k)

    @staticmethod
    def _positions(code):
        """(kind, key, index) of every coefficient of code."""
        return [("edge", e, i) for e, cs in code.edge_coeffs.items() for i in range(len(cs))] + [
            ("decoder", k, i) for k, cs in code.decoders.items() for i in range(len(cs))
        ]

    @staticmethod
    def _forged(code, position, value):
        kind, key, i = position
        edges, decoders = dict(code.edge_coeffs), dict(code.decoders)
        table = edges if kind == "edge" else decoders
        table[key] = table[key][:i] + (value,) + table[key][i + 1:]
        return ScalarLinearCode(code.ring, edges, decoders)

    @pytest.mark.parametrize("text", FIELDS)
    def test_log_ops_against_the_element_arithmetic(self, text):
        spec = parse_ring(text)
        d = network_mod._domain(spec)
        encode, decode, z, u = d.encode, d.decode, d.zero, d.one
        log_add, log_mul = (lambda i, j: d.plus((i,), (j,))[0]), (lambda i, j: d.scaled(i, (j,))[0])
        assert z is None and u == 0 and decode(None) is zero(spec) and decode(0) is one(spec)
        assert encode(zero(spec)) is None and encode(one(spec)) == 0
        assert encode(RingElement(spec, one(spec).payload)) == 0
        values, (plus, times, _) = self._values(spec), oracle_ops(spec)
        assert [encode(decode(encode(a))) for a in values] == [encode(a) for a in values]
        for a, b in itertools.product(values, repeat=2):
            i, j = encode(a), encode(b)
            assert decode(log_add(i, j)).payload == plus(a.payload, b.payload), (a, b)
            assert decode(log_mul(i, j)).payload == times(a.payload, b.payload), (a, b)
            assert log_add(i, j) is None or 0 <= log_add(i, j) < len(elements(spec)) - 1

    @pytest.mark.parametrize("text", FIELDS)
    def test_constructions_verify_as_on_elements(self, text):
        spec = parse_ring(text)
        for n in range(2, min(len(elements(spec)) + 1, 7) + 1):
            net, code = choose_two(n), choose_two_field_solution(n, spec)
            assert verify(net, code) and oracle_verify(net, code)
            got = transfer(net, code)
            assert got == {ref: v for (kind, ref), v in oracle_transfer(net, code).items() if kind == "edge"}
            shared = {a.payload: a for a in elements(spec)}  # the entries come back as the shared elements
            assert all(a is shared[a.payload] for vec in got.values() for a in vec.coefficients.values())

    @pytest.mark.parametrize("text", FIELDS)
    def test_every_single_coefficient_forgery(self, text):
        """Each coefficient of choose_two(3)'s field solution, swapped for each
        value (a fresh RingElement, not the shared one), with the relays also
        fresh: _verify decides as the oracle does, and both verdicts occur."""
        spec = parse_ring(text)
        net, code = choose_two(3), choose_two_field_solution(3, spec)
        fresh_one = RingElement(spec, one(spec).payload)
        relays = {e: (fresh_one,) if cs == (one(spec),) else cs for e, cs in code.edge_coeffs.items()}
        verdicts = []
        for base in (code, ScalarLinearCode(spec, relays, code.decoders)):
            for position in self._positions(base):
                for value in self._values(spec):
                    forged = self._forged(base, position, RingElement(spec, value.payload))
                    got = network_mod._verify(network_mod._layout(net), forged)
                    assert got is oracle_verify(net, forged), (position, value)
                    verdicts.append(got)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("text", FIELDS)
    def test_a_coefficient_over_another_ring_raises(self, text):
        spec = parse_ring(text)
        other = self._other(spec)
        net, code = choose_two(3), choose_two_field_solution(3, spec)
        for position in self._positions(code):
            kind, key, i = position
            a = (code.edge_coeffs if kind == "edge" else code.decoders)[key][i]
            forged = self._forged(code, position, RingElement(other, a.payload))
            with pytest.raises(ValueError, match="different rings"):
                verify(net, forged)
            if kind == "edge":
                with pytest.raises(ValueError, match="different rings"):
                    transfer(net, forged)
        vecs = transfer(net, code)
        rows = [vecs["a01x02"], vecs["b01x02"]]
        for i, m in itertools.product(range(2), "xy"):
            moved = [TransferVector(dict(r.coefficients)) for r in rows]
            moved[i].coefficients[m] = RingElement(other, rows[i].coefficients[m].payload)
            with pytest.raises(ValueError, match="different rings"):
                decode_search(moved, ["x", "y"], spec)

    @pytest.mark.parametrize("text", FIELDS)
    def test_each_coefficient_and_row_entry_is_owner_checked_once(self, text, monkeypatch):
        spec = parse_ring(text)
        net, code = choose_two(4), choose_two_field_solution(4, spec)
        vecs = transfer(net, code)
        rows = [vecs["a01x02"], vecs["b01x02"], vecs["a01x03"]]
        checked = []
        real = network_mod._check_owner
        monkeypatch.setattr(network_mod, "_check_owner", lambda a, s: checked.append(a) or real(a, s))
        assert verify(net, code)
        assert len(checked) == len(self._positions(code))
        checked.clear()
        assert decode_search(rows, ["y", "x"], spec) is not None
        assert len(checked) == 6

    @pytest.mark.parametrize("text", FIELDS[:4])
    def test_decode_search_matches_the_exhaustive_oracle(self, text):
        spec = parse_ring(text)
        els, rng = elements(spec), random.Random(len(elements(spec)))
        outcomes = set()
        for _ in range(40):
            msgs = ["x", "y", "z"][: rng.randint(1, 3)]
            rows = []
            for _ in range(rng.randint(1, 2 if len(els) > 9 else 3)):
                kind = rng.random()
                if kind < 0.15 and rows:
                    rows.append(rng.choice(rows))
                elif kind < 0.3:
                    rows.append(TransferVector(dict.fromkeys(msgs, RingElement(spec, zero(spec).payload))))
                else:
                    rows.append(TransferVector({m: RingElement(spec, rng.choice(els).payload) for m in msgs}))
            demands = rng.sample(msgs, rng.randint(1, len(msgs)))
            want = [oracle_decode(rows, d, spec) for d in demands]
            want = None if None in want else tuple(want)
            assert decode_search(rows, demands, spec) == want, (rows, demands)
            outcomes.add(want is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("text", FIELDS[4:])
    def test_decode_search_matches_the_element_kernel(self, text):
        spec = parse_ring(text)
        els, rng = elements(spec), random.Random(len(elements(spec)))
        outcomes = set()
        for _ in range(300):
            msgs = ["x", "y", "z"][: rng.randint(1, 3)]
            rows = [
                TransferVector({m: rng.choice(els) if rng.random() < 0.8 else zero(spec) for m in msgs})
                for _ in range(rng.randint(1, 5))
            ]
            demands = rng.sample(msgs, rng.randint(1, len(msgs)))
            want = decode_on_elements(rows, demands, spec)
            assert decode_search(rows, demands, spec) == want, (rows, demands)
            outcomes.add(want is None)
        assert outcomes == {True, False}


class TestValueDomain:
    """network._domain, the one value record verify, decode_search and the
    search compute on: products on their factors' values, decode_search
    above the table limit, and the search's candidates, one per unit orbit."""

    PRODUCTS = ["GF(4)xGF(3)", "Z(4)xD(2)", "GF(2^8)xZ(9)"]

    @pytest.mark.parametrize("text", PRODUCTS)
    def test_product_values_are_factor_values(self, text):
        spec = parse_ring(text)
        d, parts = network_mod._domain(spec), [network_mod._domain(f) for f in spec.factors]
        els = elements(spec)
        if len(els) > 64:
            els = [zero(spec), one(spec)] + random.Random(3).sample(els, 30)
        assert (d.zero, d.one) == (d.encode(zero(spec)), d.encode(one(spec)))
        plus, times, _ = oracle_ops(spec)
        flat = lambda v: tuple(tuple(c.payload for c in d.decode(x).payload) for x in v)
        for a in els:
            assert d.encode(a) == tuple(f.encode(x) for f, x in zip(parts, a.payload))
            assert d.decode(d.encode(a)) == a
            for b in els:
                x, y = d.encode(a), d.encode(b)
                assert flat(d.plus((x, y), (y, y))) == (plus(a.payload, b.payload), plus(b.payload, b.payload))
                assert flat(d.scaled(x, (y, x))) == (times(a.payload, b.payload), times(a.payload, a.payload))

    def test_decode_is_over_the_product_given(self):
        # an equal product of another object, used first, owns no result
        fresh, other = (parse_ring("GF(4)xZ(9)") for _ in "ab")
        assert fresh == other and fresh is not other
        first = network_mod._domain(fresh)
        d = network_mod._domain(other)
        assert d is network_mod._domain(other) is not first
        assert first.decode(first.one).ring is fresh
        for v in (d.zero, d.one, d.plus((d.one,), (d.one,))[0], d.encode(element(other, ((0, 1), 4)))):
            assert d.decode(v).ring is other

    @pytest.mark.parametrize("text", PRODUCTS)
    def test_product_code_forgeries(self, text):
        """Each coefficient of a product code of choose_two(3), swapped for
        other values: _verify decides as the oracle verify, and both
        verdicts occur."""
        spec, net = parse_ring(text), choose_two(3)
        code = product_code(net, [(f, solve_brute(net, f, budget=2**200)) for f in spec.factors])
        values = [zero(spec), one(spec)] + random.Random(4).sample(elements(spec), 4)
        verdicts = []
        for position in TestLogDomain._positions(code):
            for value in values:
                forged = TestLogDomain._forged(code, position, RingElement(spec, value.payload))
                got = network_mod._verify(network_mod._layout(net), forged)
                assert got is oracle_verify(net, forged), (position, value)
                verdicts.append(got)
        assert True in verdicts and False in verdicts

    def test_decode_search_above_the_table_limit(self):
        # GF(2^13) computes on RingElements through the public add and mul
        spec = parse_ring("GF(2^13)")
        els, rng, d = elements(spec), random.Random(13), network_mod._domain(spec)
        assert d.field and [d.val(d.encode(a)) for a in els[:3]] == [len(els), 1, 1]
        outcomes = set()
        for _ in range(60):
            msgs = ["x", "y", "z"][: rng.randint(1, 3)]
            rows = [
                TransferVector({m: rng.choice(els) if rng.random() < 0.8 else zero(spec) for m in msgs})
                for _ in range(rng.randint(1, 4))
            ]
            demands = rng.sample(msgs, rng.randint(1, len(msgs)))
            want = decode_on_elements(rows, demands, spec)
            assert decode_search(rows, demands, spec) == want, (rows, demands)
            outcomes.add(want is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("ring, width", [
        ("GF(4)", 2), ("GF(5)", 2), ("GF(9)", 2), ("Z(4)", 2), ("Z(8)", 2), ("Z(9)", 2), ("Z(27)", 2),
        ("GF(4)", 3), ("Z(4)", 3), ("Z(8)", 3), ("Z(9)", 3),
    ])
    def test_candidates_are_the_first_combo_of_each_unit_orbit(self, ring, width, monkeypatch, cold_memo):
        """One edge combines `width` messages for a receiver demanding all of
        them, so no candidate decodes and the search tries the whole list.
        On unit vectors a combo is its own vector: the list is the first
        combo, in canonical order, of each unit orbit of all combos."""
        spec, msgs = parse_ring(ring), "xyz"[:width]
        net = Network(("s", "r"), (Edge("e", "s", "r"),), tuple(Message(m, "s") for m in msgs),
                      (Receiver("r", tuple(msgs)),))
        tried, real = [], network_mod._first_decoders
        monkeypatch.setattr(network_mod, "_first_decoders", lambda rows, t, ops: tried.append(rows[0]) or real(rows, t, ops))
        assert network_mod._search(network_mod._layout(net), spec) is None
        els = elements(spec)
        units, seen, want = [u for u in els if inverse(u) is not None], set(), []
        for combo in itertools.product(els, repeat=width):
            if (orbit := frozenset(tuple(mul(u, c) for c in combo) for u in units)) not in seen:
                seen.add(orbit)
                want.append(combo)
        d = network_mod._domain(spec)
        assert [tuple(map(d.decode, v)) for v in tried] == want

    @pytest.mark.parametrize("q", [16, 64, 256, 1024])
    def test_choose_two_makes_one_candidate_per_unit_orbit(self, q, monkeypatch, cold_memo):
        # the three source edges share one list: (0, 0), (0, 1) and (1, c)
        calls = []
        real = network_mod._Domain.orbit_key
        monkeypatch.setattr(network_mod._Domain, "orbit_key", lambda d, v: calls.append(v) or real(d, v))
        code = solve_brute(choose_two(3), parse_ring(f"GF({q})"), budget=2**200)
        assert code is not None and verify(choose_two(3), code)
        assert len(calls) <= 2 * q + 4

    def test_choose_two_over_gf_2_10_is_fast(self, cold_memo):
        # about 1,000 candidates; making all q*q coefficient pairs took 3.8 s
        start = time.perf_counter()
        code = solve_brute(choose_two(3), parse_ring("GF(2^10)"), budget=2**200)
        assert time.perf_counter() - start < 0.5
        assert code is not None and verify(choose_two(3), code)


class TestSearchMemo:
    """network._search_memo: the eliminations and candidate lists that every
    search over one ring value shares.  Warm or cold, a solve gives the same
    bytes; warm, it redoes no elimination and makes no candidate again."""

    FIELDS = ("GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(11)", "GF(13)", "GF(16)")
    # the ring anchors of the benchmark's solve workload
    ANCHORS = ("Z(4)", "D(2)", "GF(2)xGF(2)", "Z(9)", "D(3)", "Z(6)", "GF(4)xGF(3)", "Z(8)", "Z(10)", "GF(2)xGF(3)")

    @staticmethod
    def _residue_sizes(spec):
        if isinstance(spec, Product):
            return [q for f in spec.factors for q in TestSearchMemo._residue_sizes(f)]
        if isinstance(spec, IntegersMod):
            return [p for p, _ in rings_mod.factorize(spec.n)]
        return [spec.p] if isinstance(spec, DualNumbers) else [rings_mod.ring_size(spec)]

    @classmethod
    def _grid(cls):
        """(n, ring) for choose_two(n), n = 2..12, over the fields and the
        anchors, less the cases where a residue field GF(q) with
        4 <= q < n - 1 is searched to exhaustion (seconds each)."""
        specs = [parse_ring(r) for r in cls.FIELDS + cls.ANCHORS]
        return [(n, spec) for spec in specs for n in range(2, 13)
                if not any(4 <= q < n - 1 for q in cls._residue_sizes(spec))]

    @staticmethod
    def _answer(net, spec):
        code = solve_brute(net, spec, budget=2**200)
        return None if code is None else json.dumps(code_to_json(code))

    @staticmethod
    def _counted(monkeypatch):
        """Counts of _first_decoders and orbit_key calls from here on."""
        calls = {"_first_decoders": 0, "orbit_key": 0}
        kernel, key = network_mod._first_decoders, network_mod._Domain.orbit_key

        def bump(name, real):
            return lambda *a: calls.__setitem__(name, calls[name] + 1) or real(*a)

        monkeypatch.setattr(network_mod, "_first_decoders", bump("_first_decoders", kernel))
        monkeypatch.setattr(network_mod._Domain, "orbit_key", bump("orbit_key", key))
        return calls

    def test_warm_solves_equal_cold_solves(self, cold_memo):
        grid = self._grid()
        cold = {}
        for n, spec in grid:
            network_mod._search_memo.cache_clear()
            cold[n, spec] = self._answer(choose_two(n), spec)
        network_mod._search_memo.cache_clear()
        for order in (sorted(grid, key=lambda c: c[0]), sorted(grid, key=lambda c: -c[0])):
            for n, spec in order:
                assert self._answer(choose_two(n), spec) == cold[n, spec], (n, spec)
        for n, spec in grid:  # the plain search, where it is fast
            if n <= 3 and rings_mod.ring_size(spec) <= 5:
                net = choose_two(n)
                plain = plain_search(net, spec)
                if isinstance(spec, (Product, DualNumbers)):  # other normal forms: verdicts only
                    assert (plain is None) == (cold[n, spec] is None), (n, spec)
                else:
                    assert (None if plain is None else json.dumps(code_to_json(plain))) == cold[n, spec], (n, spec)

    def test_a_repeated_solve_does_no_search_work(self, monkeypatch, cold_memo):
        # over a field the decoders come from the search, so a repeat makes no
        # elimination; Z(12) splits into fresh Z(4) and Z(3) specs each time
        cases = [(choose_two(5), GF4), (choose_two(6), parse_ring("GF(7)")), (choose_two(5), GF3),
                 (choose_two(3), parse_ring("Z(12)"))]
        first = [self._answer(net, spec) for net, spec in cases]
        calls = self._counted(monkeypatch)
        for (net, spec), want in zip(cases[:3], first):
            assert self._answer(net, spec) == want
        assert calls == {"_first_decoders": 0, "orbit_key": 0}
        assert self._answer(*cases[3]) == first[3] and calls["orbit_key"] == 0

    def test_relabelled_networks_share_eliminations(self, monkeypatch, cold_memo):
        # entries are keyed by vectors, not by node, edge or message names
        net, spec = choose_two(5), parse_ring("GF(5)")
        name = {"x": "a", "y": "b"}.get
        renamed = Network(
            tuple("n" + v for v in net.nodes),
            tuple(Edge("e" + e.id, "n" + e.tail, "n" + e.head) for e in net.edges),
            tuple(Message(name(m.id), "n" + m.source) for m in net.messages),
            tuple(Receiver("n" + r.node, tuple(map(name, r.demands))) for r in net.receivers),
        )
        want = solve_brute(net, spec)
        calls = self._counted(monkeypatch)
        got = solve_brute(renamed, spec)
        assert calls == {"_first_decoders": 0, "orbit_key": 0}
        assert [got.edge_coeffs["e" + e] for e in sorted(want.edge_coeffs)] == [want.edge_coeffs[e] for e in sorted(want.edge_coeffs)]

    @pytest.mark.parametrize("over", [0, 1])
    def test_a_memo_above_the_cap_is_emptied_first(self, over, monkeypatch, cold_memo):
        net, spec = choose_two(6), parse_ring("GF(5)")
        calls = self._counted(monkeypatch)
        want, cold = self._answer(net, spec), dict(calls)
        decodes, lists = network_mod._search_memo(spec)
        decodes["stale"] = None
        monkeypatch.setattr(network_mod, "SEARCH_MEMO_LIMIT", len(decodes) + len(lists) - over)
        calls.update(dict.fromkeys(calls, 0))
        assert self._answer(net, spec) == want
        assert ("stale" in decodes) == (not over)
        assert calls == (cold if over else {"_first_decoders": 0, "orbit_key": 0})

    def test_an_exception_drops_the_candidate_lists(self, monkeypatch, cold_memo):
        # orbit_key raises once, three candidates into the shared list of the
        # source edges; a list cut short there would refute choose_two(4)
        spec, ns = parse_ring("GF(5)"), (2, 3, 4, 5, 6, 7)
        want = {}
        for n in ns:
            network_mod._search_memo.cache_clear()
            want[n] = self._answer(choose_two(n), spec)
        network_mod._search_memo.cache_clear()
        real, made = network_mod._Domain.orbit_key, []

        def failing(d, v):
            made.append(v)
            if len(made) == 3:
                raise KeyboardInterrupt
            return real(d, v)

        monkeypatch.setattr(network_mod._Domain, "orbit_key", failing)
        with pytest.raises(KeyboardInterrupt):
            solve_brute(choose_two(4), spec)
        assert network_mod._search_memo(spec)[1] == {}
        for n in ns + ns[::-1]:
            assert self._answer(choose_two(n), spec) == want[n], n

    def test_z_p_shares_the_memo_of_gf_p(self, monkeypatch, cold_memo):
        # Z(p) for prime p and GF(p) have the same values and kernel results,
        # so a Z(p) search after a GF(p) search on the same network makes no
        # elimination and no candidate again, and finds the same payloads
        payloads = lambda table: {k: tuple(c.payload for c in cs) for k, cs in table.items()}
        cases = [(choose_two(3), 2), (choose_two(4), 2), (choose_two(4), 3), (choose_two(6), 5)]
        fields = [solve_brute(net, PrimeField(p), budget=2**200) for net, p in cases]
        calls = self._counted(monkeypatch)
        for (net, p), field in zip(cases, fields):
            residue = solve_brute(net, IntegersMod(p), budget=2**200)
            assert (residue is None) == (field is None), p
            if field is not None:
                assert residue.ring == IntegersMod(p)
                assert payloads(residue.edge_coeffs) == payloads(field.edge_coeffs)
                assert payloads(residue.decoders) == payloads(field.decoders)
        assert calls == {"_first_decoders": 0, "orbit_key": 0}
        assert None in fields and fields.count(None) < len(fields)


class TestSolveBrute:
    def test_two_six_refutations_and_witnesses(self):
        ts = two_six()
        assert solve_brute(ts, GF2) is None
        assert solve_brute(ts, Z6) is None
        for spec in (GF3, GF4, GF5):
            code = solve_brute(ts, spec)
            assert code is not None and verify(ts, code)

    def test_deterministic(self):
        ts = two_six()
        a = solve_brute(ts, GF3)
        b = solve_brute(ts, GF3)
        assert code_to_json(a) == code_to_json(b)

    def test_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            solve_brute(two_six(), GF3, budget=100)
        assert err.value.required == 3**8

    def test_solution_over_product_ring(self):
        net = choose_two(3)
        code = solve_brute(net, Product((GF2, GF3)))
        assert code is not None and verify(net, code)

    def test_self_check_raises(self, monkeypatch):
        # wrong decoders must be refused by an explicit error, not an assert
        # that python -O strips; over a field they come from the search's
        # kernel, over Z(p^k) from decode_search
        search = network_mod._search

        def zero_decoders(plan, spec):
            code = search(plan, spec)
            zeros = {key: (zero(spec),) * len(cs) for key, cs in code.decoders.items()}
            return ScalarLinearCode(spec, code.edge_coeffs, zeros)

        monkeypatch.setattr(network_mod, "_search", zero_decoders)
        with pytest.raises(RuntimeError):
            solve_brute(choose_two(3), GF2)
        monkeypatch.setattr(network_mod, "_search", search)
        monkeypatch.setattr(
            "ringcode.network.decode_search",
            lambda rows, demands, spec: tuple(tuple(zero(spec) for _ in rows) for _ in demands),
        )
        with pytest.raises(RuntimeError):
            solve_brute(choose_two(3), Z4)

    def test_completeness_against_theory_small(self):
        """choose_two(n) solvability for n <= 4 over every catalog ring of
        size <= 6 must match the known characterization: a pair network is
        always solvable, and the four-symbol network is solvable exactly
        over the rings whose every prime-power part is a field of size >= 3."""
        rings_by_size = [
            PrimeField(2),
            IntegersMod(2),
            PrimeField(3),
            IntegersMod(3),
            galois_field(2, 2),
            IntegersMod(4),
            DualNumbers(2),
            Product((GF2, GF2)),
            PrimeField(5),
            IntegersMod(5),
            IntegersMod(6),
            Product((GF2, GF3)),
        ]
        solvable_4 = {
            "GF(3)",
            "Z(3)",
            "GF(2^2)",
            "GF(5)",
            "Z(5)",
        }
        from ringcode.rings import format_ring

        for spec in rings_by_size:
            for n in (2, 3):
                code = solve_brute(choose_two(n), spec)
                assert code is not None and verify(choose_two(n), code)
            got = solve_brute(choose_two(4), spec) is not None
            assert got == (format_ring(spec) in solvable_4), format_ring(spec)


class TestRoutedSolve:
    """solve_brute routes products, composite Z(n), Z(p^k) and D(p) through
    smaller rings; its verdicts must equal the plain search on the unsplit
    ring.  Left out as too slow for the suite (seconds to minutes of plain
    search each): choose_two(4) over Z(6), Z(8), Z(10), Z(12) and product
    rings of size 6 or more, choose_two(5) over Z(9), and the corpus over
    rings of size above 6."""

    SMALL_CATALOG = (
        "GF(2)", "Z(2)", "GF(3)", "Z(3)", "GF(4)", "Z(4)", "D(2)",
        "GF(2)xGF(2)", "GF(5)", "Z(5)", "Z(6)", "GF(2)xGF(3)",
    )

    @staticmethod
    def _agree(net, spec):
        routed = solve_brute(net, spec)
        plain = plain_search(net, spec)
        assert (routed is None) == (plain is None), (net.nodes, spec)
        if routed is not None:
            assert routed.ring == spec and verify(net, routed)

    @pytest.mark.parametrize("ring", SMALL_CATALOG)
    def test_corpus_against_plain_search(self, ring):
        spec = parse_ring(ring)
        # the corpus includes choose_two(2) and choose_two(3)
        for net in corpus():
            self._agree(net, spec)

    @pytest.mark.parametrize("ring", ["Z(4)", "D(2)", "GF(2)xGF(2)", "D(3)", "Z(9)"])
    def test_two_six_against_plain_search(self, ring):
        self._agree(two_six(), parse_ring(ring))

    # a receiver with two copies of x decodes it in more than one way; the
    # plain search over D(3) and Z(6) picks the decoder (0, 1), the routes (1, 0)
    TWO_COPIES = Network(
        ("s", "r"),
        (Edge("e1", "s", "r"), Edge("e2", "s", "r")),
        (Message("x", "s"),),
        (Receiver("r", ("x",)),),
    )

    @pytest.mark.parametrize("net", [choose_two(4), TWO_COPIES])
    def test_dual_numbers_lift_the_field_solution(self, net):
        D3 = DualNumbers(3)
        assert solve_brute(net, D3) == lift_subring(net, solve_brute(net, GF3), D3)

    @pytest.mark.parametrize("net", [choose_two(3), TWO_COPIES])
    def test_composite_is_crt_image_of_factors(self, net):
        Z3 = IntegersMod(3)
        combined = product_code(
            net, [(Z4, solve_brute(net, Z4)), (Z3, solve_brute(net, Z3))]
        )
        want = map_code(net, combined, crt(Product((Z4, Z3)), IntegersMod(12)))
        assert solve_brute(net, IntegersMod(12)) == want

    @pytest.fixture
    def searched(self, monkeypatch):
        """The rings that _search is called with during the test."""
        seen = []
        search = network_mod._search

        def recording(plan, spec):
            seen.append(spec)
            return search(plan, spec)

        monkeypatch.setattr(network_mod, "_search", recording)
        return seen

    def test_residue_field_refutes_without_searching(self, searched):
        assert solve_brute(two_six(), Z4) is None
        assert [len(elements(spec)) for spec in searched] == [2]

    def test_product_stops_at_first_unsolvable_factor(self, searched):
        assert solve_brute(two_six(), Product((GF2, GF3))) is None
        assert searched == [GF2]

    def test_refutation_chain(self):
        net = two_six()
        assert network_mod._solve(net, Product((Z4, GF3)), 2**40) == (
            None,
            ["Z(2)", "residue field of Z(4)", "factor of Z(4)xGF(3)"],
        )
        assert network_mod._solve(net, GF2, 2**40) == (None, ["GF(2)"])
        code, why = network_mod._solve(net, GF3, 2**40)
        assert why == [] and verify(net, code)

    @pytest.mark.parametrize("n", [1000, 2**20 - 1])
    def test_composite_modulus_is_not_enumerated(self, n):
        # nothing to search on a relay chain, and crt maps each coefficient
        # from the moduli: no pass over the n elements of Z(n) or their pairs
        start = time.perf_counter()
        code = solve_brute(relay_chain(), IntegersMod(n))
        assert code.ring == IntegersMod(n) and verify(relay_chain(), code)
        assert time.perf_counter() - start < 2.0

    def test_budget_is_checked_on_each_searched_ring(self):
        # GF(4) and GF(3) are searched; the requested GF(4)xGF(3) would need
        # 12**8 assignments, but each searched ring needs at most 4**8
        spec = Product((GF4, GF3))
        code = solve_brute(two_six(), spec, budget=4**8)
        assert code.ring == spec and verify(two_six(), code)
        with pytest.raises(BudgetExceeded) as err:
            solve_brute(two_six(), spec, budget=4**8 - 1)
        assert err.value.required == 4**8
        # Z(4) is refuted over Z(2) before its own 4**8 search is budgeted
        assert solve_brute(two_six(), Z4, budget=2**8) is None


class TestIndexKernel:
    """_search runs on element indices; RingElement values appear only in
    the returned code.  Its decoders come from the kernel over a field and
    from decode_search over Z(p^k)."""

    @pytest.mark.parametrize(
        "ring",
        ["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(16)",
         "GF(25)", "GF(27)", "GF(32)", "Z(4)", "Z(8)", "Z(9)", "Z(25)", "Z(27)"],
    )
    def test_tables_match_ring_arithmetic(self, ring):
        # the values the search runs on (network._domain), every operation
        # on every value against the payload arithmetic of ring_oracle
        spec = parse_ring(ring)
        els, d = elements(spec), network_mod._domain(spec)
        q, enc, (plus, times, minus) = len(els), d.encode, oracle_ops(spec)
        values, pay = [enc(a) for a in els], lambda v: tuple(d.decode(x).payload for x in v)
        assert [d.decode(x) for x in values] == els
        assert (d.zero, d.one) == (enc(zero(spec)), enc(one(spec)))
        powers = {d.val(x): one(spec) if d.field else els[d.val(x)] for x in values[1:]}  # w -> p^v
        assert sorted(powers) == ([1] if d.field else [w for w in range(1, q) if q % w == 0])
        for i, (a, x) in enumerate(zip(els, values)):
            assert d.val(x) == (math.gcd(i, q) if not d.field else 1 if i else q)
            assert (d.val(x) == 1) == oracle_is_unit(spec, a.payload)
            assert d.decode(d.cancel(x, 1)).payload == minus(a.payload)
            if i:
                u, f = d.split(x, d.val(x))
                u = d.decode(u).payload
                assert oracle_is_unit(spec, u) and times(u, a.payload) == powers[d.val(x)].payload
                assert d.decode(f) == (zero(spec) if d.field else els[q // d.val(x) % q])
            for w, power in powers.items():  # a + c*p^v is a's least residue modulo p^v
                c = d.decode(d.cancel(x, w)).payload
                assert plus(a.payload, times(c, power.payload)) == els[i % w].payload
            for b, y in zip(els, values):
                assert pay(d.plus((x, y), (y, y))) == (plus(a.payload, b.payload), plus(b.payload, b.payload))
                assert pay(d.scaled(x, (y, x))) == (times(a.payload, b.payload), times(a.payload, a.payload))

    @pytest.mark.parametrize("ring", ["GF(2^13)", "GF(8191)", "Z(8192)"])
    def test_tables_refuse_rings_above_the_table_limit(self, ring, monkeypatch):
        # the search refuses a ring of more than FIELD_TABLE_LIMIT elements
        # before it builds the ring's value record, or does anything else
        plan = network_mod._layout(self.ONE_COMBINING_EDGE)
        monkeypatch.setattr(network_mod, "_domain", None)
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            network_mod._search(plan, parse_ring(ring))
        assert time.perf_counter() - start < 0.5

    def test_search_over_a_large_ring_is_refused_quickly(self):
        # one combining edge over Z(8192) needs 8192**2 = 2**26 assignments,
        # within the default budget; the search's size guard refuses it
        net = Network(
            ("s", "r"),
            (Edge("e", "s", "r"),),
            (Message("x", "s"), Message("y", "s")),
            (Receiver("r", ("x",)),),
        )
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            solve_brute(net, IntegersMod(8192))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "ring", ["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)",
                 "Z(4)", "Z(8)", "Z(9)"],
    )
    def test_same_code_as_ring_element_search(self, ring):
        # two-six over Z(8) is left out: the oracle takes about 50 s on it
        spec = parse_ring(ring)
        nets = corpus() + ([two_six()] if ring != "Z(8)" else [])
        for net in nets:
            got = network_mod._search(network_mod._layout(net), spec)
            want = plain_search(net, spec)
            assert (got is None) == (want is None), (net.nodes, ring)
            if got is not None:
                assert code_to_json(got) == code_to_json(want), (net.nodes, ring)

    def test_same_code_on_random_networks(self):
        # unlike the corpus: messages at several nodes, partial demands,
        # edges with no input, and unsolvable cases
        rng = random.Random(4)
        compared = 0
        while compared < 1500:
            n = rng.randint(2, 5)
            nodes = [f"n{i}" for i in range(n)]
            edges = []
            for k in range(rng.randint(1, 6)):
                a = rng.randrange(n - 1)
                edges.append(Edge(f"e{k}", nodes[a], nodes[rng.randrange(a + 1, n)]))
            msgs = [Message(f"m{j}", rng.choice(nodes[:-1])) for j in range(rng.randint(1, 3))]
            receivers = [
                Receiver(node, tuple(rng.sample([m.id for m in msgs], rng.randint(1, len(msgs)))))
                for node in rng.sample(nodes[1:], rng.randint(1, n - 1))
            ]
            net = Network(tuple(nodes), tuple(edges), tuple(msgs), tuple(receivers))
            plan = network_mod._layout(net)
            edges_in_order, inputs_of = named_layout(net)
            arities = [len(inputs_of[e.tail]) for e in edges_in_order]
            for spec in (GF2, GF3, GF4, Z4, GF5, GF8, Z8, Z9):
                if len(elements(spec)) ** sum(a for a in arities if a >= 2) > 4096:
                    continue
                got = network_mod._search(plan, spec)
                want = plain_search(net, spec)
                assert (got is None) == (want is None), (net, spec)
                if got is not None:
                    assert code_to_json(got) == code_to_json(want), (net, spec)
                compared += 1

    @staticmethod
    def _same_as_oracle(net, spec):
        got = network_mod._search(network_mod._layout(net), spec)
        want = plain_search(net, spec)
        assert (got is None) == (want is None), (net, spec)
        if got is not None:
            assert code_to_json(got) == code_to_json(want), (net, spec)
        return got is not None

    @staticmethod
    def _relabelled(net, rng):
        """net with node, edge and message ids renamed at random, which
        reorders its searched edges and its messages."""

        def fresh(prefix, old):
            return dict(zip(old, (f"{prefix}{i:02d}" for i in rng.sample(range(100), len(old)))))

        nodes, edges = fresh("v", net.nodes), fresh("e", [e.id for e in net.edges])
        msgs = fresh("m", [m.id for m in net.messages])
        return Network(
            tuple(nodes[v] for v in net.nodes),
            tuple(Edge(edges[e.id], nodes[e.tail], nodes[e.head]) for e in net.edges),
            tuple(Message(msgs[m.id], nodes[m.source]) for m in net.messages),
            tuple(Receiver(nodes[r.node], tuple(msgs[d] for d in r.demands)) for r in net.receivers),
        )

    def test_same_code_on_relabelled_choose_two(self):
        # every edge out of the source shares one candidate list, which a
        # deeper node extends while an outer node is still walking it; left
        # out as too slow for the oracle: n = 6 over GF(4), n >= 4 over Z(8),
        # n >= 5 over Z(9) (15 s to minutes each)
        rng = random.Random(12)
        verdicts = set()
        for ring in ("GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "Z(4)", "Z(8)", "Z(9)"):
            spec = parse_ring(ring)
            top = {"GF(4)": 5, "Z(8)": 3, "Z(9)": 4}.get(ring, 6)
            for n in range(2, top + 1):
                verdicts.add(self._same_as_oracle(self._relabelled(choose_two(n), rng), spec))
        assert verdicts == {True, False}

    @staticmethod
    def _fan_network(rng, sources):
        """Two messages at each of `sources` nodes s and t.  Two to four edges
        leave s, to middle nodes that may get several of them; the edges out
        of a middle node combine those, so their inputs repeat across sibling
        branches.  t's edges combine its own messages: the same arity as s's
        edges, other input vectors."""
        mids, sinks = ["m0", "m1", "m2"][: rng.randint(1, 3)], ["r0", "r1", "r2"][: rng.randint(1, 3)]
        srcs = ["s", "t"][:sources]
        msgs = [Message(m, src) for src, pair in zip(srcs, ("xy", "zw")) for m in pair]
        edges = [Edge(f"a{k}", "s", rng.choice(mids)) for k in range(rng.randint(2, 4))]
        edges += [Edge(f"b{k}", "t", rng.choice(mids + sinks)) for k in range(rng.randint(1, 2) * (sources - 1))]
        edges += [Edge(f"c{k}", rng.choice(mids), rng.choice(sinks)) for k in range(rng.randint(1, 4))]
        receivers = [Receiver(r, tuple(rng.sample([m.id for m in msgs], rng.randint(1, 2)))) for r in sinks]
        return Network(tuple(srcs + mids + sinks), tuple(edges), tuple(msgs), tuple(receivers))

    @pytest.mark.parametrize("sources", [1, 2])
    def test_same_code_on_fan_networks(self, sources):
        rng = random.Random(20 + sources)
        verdicts, compared = [], 0
        while compared < 300:
            net = self._fan_network(rng, sources)
            edges, inputs_of = named_layout(net)
            exponent = sum(a for a in (len(inputs_of[e.tail]) for e in edges) if a >= 2)
            widest = max(len(inputs_of[r.node]) for r in net.receivers)
            for spec in (GF2, GF3, GF4, Z4, GF5, Z8, Z9):
                # the oracle decodes by trying all q**widest decoders
                if len(elements(spec)) ** exponent <= 4096 and len(elements(spec)) ** widest <= 128:
                    verdicts.append(self._same_as_oracle(net, spec))
                    compared += 1
        assert 0 < sum(verdicts) < len(verdicts)

    def test_receiver_without_inputs_or_demands(self):
        # it decodes its (no) demands, as verify and the oracle agree
        net = Network(
            ("s", "t", "u"),
            (Edge("e", "s", "t"),),
            (Message("x", "s"), Message("y", "s")),
            (Receiver("t", ("x",)), Receiver("u", ())),
        )
        plan = network_mod._layout(net)
        for spec in (GF2, Z4):
            got = network_mod._search(plan, spec)
            assert got is not None and verify(net, got)
            assert code_to_json(got) == code_to_json(plain_search(net, spec))

    @pytest.mark.parametrize("ring", ["GF(4)", "GF(9)", "Z(8)", "Z(9)"])
    def test_orbit_key_names_unit_orbits(self, ring):
        spec = parse_ring(ring)
        d = network_mod._domain(spec)
        values = [d.encode(a) for a in elements(spec)]
        units = [u for u in values if inverse(d.decode(u)) is not None]
        for v in itertools.product(values, repeat=3):
            orbit = {d.scaled(u, v) for u in units}
            # equal across the orbit, and a member of it: distinct orbits
            # are disjoint, so they cannot share a key
            assert {d.orbit_key(w) for w in orbit} == {d.orbit_key(v)} and d.orbit_key(v) in orbit

    def test_candidates_are_made_once_per_input_tuple(self, monkeypatch, cold_memo):
        # one orbit key per candidate made: the choose_two edges are fed by the
        # messages only, so they share one list of at most q + 2 candidates,
        # (0, 0), (0, 1) and (1, c) for each c
        calls = []
        real = network_mod._Domain.orbit_key
        monkeypatch.setattr(network_mod._Domain, "orbit_key", lambda d, v: calls.append(v) or real(d, v))
        for net, ring, solvable, most in (
            (choose_two(8), "GF(5)", False, 7),
            (choose_two(12), "GF(3)", False, 5),
            (choose_two(12), "GF(16)", True, 18),
            # an early success makes no more than it tries: (1, 0) is combo 3
            # over the residue field Z(2), searched first, and over Z(1024)
            # combo 12, after (0, 0) and (0, 2^t) for t < 10
            (self.ONE_COMBINING_EDGE, "Z(1024)", True, 3 + 12),
        ):
            calls.clear()
            assert (solve_brute(net, parse_ring(ring), budget=2**200) is not None) == solvable
            assert len(calls) <= most, (ring, len(calls))

    @pytest.mark.parametrize("n, ring, seconds", [(6, "GF(4)", 1.0), (7, "GF(5)", 3.0)])
    def test_unit_orbit_pruning_refutes_fast(self, n, ring, seconds, cold_memo):
        # without the unit-orbit pruning: about 5 s, and over 2 min, on a 2-CPU VM
        start = time.perf_counter()
        assert solve_brute(choose_two(n), parse_ring(ring), budget=2**80) is None
        assert time.perf_counter() - start < seconds

    def test_boundary_decoder_disagreeing_raises(self, monkeypatch):
        # a field decoder missing from the kernel's answer fails the check
        search = network_mod._search

        def drop_one(plan, spec):
            code = search(plan, spec)
            code.decoders.popitem()
            return code

        monkeypatch.setattr(network_mod, "_search", drop_one)
        with pytest.raises(RuntimeError):
            solve_brute(choose_two(3), GF3)
        monkeypatch.setattr(network_mod, "_search", search)
        # over Z(p^k) decode_search is still the boundary
        monkeypatch.setattr(
            "ringcode.network.decode_search", lambda rows, demands, spec: None
        )
        with pytest.raises(RuntimeError):
            solve_brute(choose_two(3), Z4)
        # with nothing to search, a receiver that cannot decode means unsolvable
        assert solve_brute(relay_chain(), GF3) is None

    @pytest.mark.parametrize("ring", ["GF(2^10)", "Z(1024)"])
    def test_large_ring_without_combining_edge(self, ring, monkeypatch):
        # no search runs when nothing combines: it would read the memo
        monkeypatch.setattr(network_mod, "_search_memo", None)
        start = time.perf_counter()
        code = solve_brute(relay_chain(), parse_ring(ring))
        assert code is not None and verify(relay_chain(), code)
        assert time.perf_counter() - start < 0.5

    ONE_COMBINING_EDGE = Network(
        ("s", "r"),
        (Edge("e", "s", "r"),),
        (Message("x", "s"), Message("y", "s")),
        (Receiver("r", ("x",)),),
    )

    @pytest.mark.parametrize("ring, seconds", [("GF(2^10)", 1.0), ("Z(1024)", 6.9)])
    def test_large_ring_with_one_combining_edge(self, ring, seconds):
        # no slower than the RingElement search (1.0 s and 6.9 s on a 2-CPU
        # VM); q*q tables built from ring calls took 26 s there
        spec = parse_ring(ring)
        start = time.perf_counter()
        code = solve_brute(self.ONE_COMBINING_EDGE, spec)
        assert time.perf_counter() - start < seconds
        assert code.edge_coeffs["e"] == (elements(spec)[1], zero(spec))
        assert verify(self.ONE_COMBINING_EDGE, code)

    @staticmethod
    def _verified(monkeypatch):
        """The rings of the codes _verify checks from here on."""
        calls, original = [], network_mod._verify
        monkeypatch.setattr(network_mod, "_verify", lambda plan, code: calls.append(code.ring) or original(plan, code))
        return calls

    def test_each_routed_code_is_verified_once(self, monkeypatch):
        # Z(12): searches over Z(2), Z(4) and Z(3), their product and its crt
        # image are built unchecked; only the answer is checked
        calls = self._verified(monkeypatch)
        code = solve_brute(choose_two(3), IntegersMod(12))
        assert code.ring == IntegersMod(12)
        assert calls == [IntegersMod(12)]

    @pytest.mark.parametrize("n, ring, solvable", [
        (3, "GF(2)xGF(3)", True), (3, "Z(4)", True), (3, "D(3)", True),
        (4, "GF(2)", False), (4, "Z(4)", False), (4, "GF(2)xGF(3)", False),
    ])
    def test_each_route_checks_its_answer_once(self, n, ring, solvable, monkeypatch):
        # choose_two(n): one check per public answer, none for a refutation
        calls, spec = self._verified(monkeypatch), parse_ring(ring)
        assert (solve_brute(choose_two(n), spec) is not None) == solvable
        assert calls == ([spec] if solvable else [])

    @pytest.mark.parametrize("ring", ["Z(12)", "GF(2)xGF(3)", "Z(4)", "D(3)", "GF(4)"])
    def test_each_solve_compiles_the_network_once(self, ring, monkeypatch):
        # every search on the route (three for Z(12)) reads the one plan that
        # solve_brute made, and its search part is built once
        layouts, searches = [], []
        layout, search = network_mod._layout, network_mod._Search
        monkeypatch.setattr(network_mod, "_layout", lambda net: layouts.append(net) or layout(net))
        monkeypatch.setattr(network_mod, "_Search", lambda *parts: searches.append(parts) or search(*parts))
        assert solve_brute(choose_two(3), parse_ring(ring)) is not None
        assert len(layouts) == 1 and len(searches) == 1


def _solvable_full_space(net, spec) -> bool:
    """Independent oracle: search every coefficient assignment for every
    edge, relays included, with no normalization or pruning."""
    els = elements(spec)
    edge_ids = sorted(e.id for e in net.edges)
    arities = {
        e.id: len(_inputs(net, e.tail)) for e in net.edges
    }
    spaces = [
        list(itertools.product(els, repeat=arities[eid])) for eid in edge_ids
    ]
    for combo in itertools.product(*spaces):
        code = ScalarLinearCode(spec, dict(zip(edge_ids, combo)), {})
        vectors = transfer(net, code)
        good = True
        for recv in net.receivers:
            rows = [
                vectors[ref]
                for kind, ref in _inputs(net, recv.node)
                if kind == "edge"
            ]
            for demand in recv.demands:
                coeffs = oracle_decode(rows, demand, spec)
                if coeffs is None:
                    good = False
                    break
                code.decoders[(recv.node, demand)] = coeffs
            if not good:
                break
        if good and verify(net, code):
            return True
    return False


class TestBoundaryCheck:
    """Inside a solve and the public constructions, codes are built
    unchecked; the code a public call returns is checked once.  A corrupted
    intermediate code must still make that call raise RuntimeError, which
    python -O keeps (the test names carry self_check for its CI step)."""

    @staticmethod
    def _corrupted(code):
        """code with its first decoder's first coefficient c made c + 1: that
        demand's sum moves by the receiver's first row, nonzero in a solution."""
        key = min(code.decoders)
        cs = code.decoders[key]
        decoders = {**code.decoders, key: (add(cs[0], one(code.ring)),) + cs[1:]}
        return ScalarLinearCode(code.ring, dict(code.edge_coeffs), decoders)

    @staticmethod
    def _both_raise(net, ring, tmp_path):
        """solve_brute and network solve over ring both raise RuntimeError."""
        with pytest.raises(RuntimeError, match="fails verify"):
            solve_brute(net, parse_ring(ring))
        path = tmp_path / "net.json"
        path.write_text(json.dumps(network_to_json(net)))
        with pytest.raises(RuntimeError, match="fails verify"):
            cli.run(["network", "solve", "--file", str(path), "--ring", ring], out=io.StringIO())

    @pytest.mark.parametrize("ring, factor", [("GF(2)xGF(3)", "GF(3)"), ("Z(12)", "Z(3)"), ("Z(12)", "Z(4)")])
    def test_corrupted_factor_code_fails_the_self_check(self, ring, factor, monkeypatch, tmp_path):
        search = network_mod._search

        def corrupting(plan, spec):
            code = search(plan, spec)
            return self._corrupted(code) if spec == parse_ring(factor) else code

        monkeypatch.setattr(network_mod, "_search", corrupting)
        self._both_raise(choose_two(3), ring, tmp_path)

    @pytest.mark.parametrize("ring", ["Z(12)", "D(3)"])  # the CRT image, the D(p) lift
    def test_corrupted_image_fails_the_self_check(self, ring, monkeypatch, tmp_path):
        apply = network_mod._apply_to_code
        monkeypatch.setattr(network_mod, "_apply_to_code", lambda code, hom: self._corrupted(apply(code, hom)))
        self._both_raise(choose_two(3), ring, tmp_path)

    @pytest.mark.parametrize("make", ["choose_two_field_solution", "product_code", "map_code", "lift_subring"])
    def test_corrupted_construction_fails_the_self_check(self, make, monkeypatch):
        net, D3 = choose_two(3), DualNumbers(3)
        solved = {spec: solve_brute(net, spec) for spec in (GF2, GF3, D3)}  # before any corruption
        calls = {
            "choose_two_field_solution": ("_decoded", lambda: choose_two_field_solution(3, GF3)),
            "product_code": ("_product_code", lambda: product_code(net, [(f, solved[f]) for f in (GF2, GF3)])),
            "map_code": ("_apply_to_code", lambda: map_code(net, solved[D3], dual_augmentation(3))),
            "lift_subring": ("_apply_to_code", lambda: lift_subring(net, solved[GF3], D3)),
        }
        inner, build = calls[make]
        assert verify(net, build())
        real = getattr(network_mod, inner)
        monkeypatch.setattr(network_mod, inner, lambda *args: self._corrupted(real(*args)))
        with pytest.raises(RuntimeError, match="fails verify"):
            build()


class TestRelayNormalizationSoundness:
    """solve_brute pins single-input edges to the relay coefficient; its
    verdict must agree with a search over the unrestricted code space."""

    def test_agrees_with_unrestricted_search(self):
        from netcorpus import diamond, triangle

        one_edge_two_demands = Network(
            ("s", "r"),
            (Edge("e1", "s", "r"),),
            (Message("x", "s"), Message("y", "s")),
            (Receiver("r", ("x", "y")),),
        )
        bottleneck_copies = Network(
            ("s", "a", "r"),
            (Edge("e1", "s", "a"), Edge("e2", "a", "r"), Edge("e3", "a", "r")),
            (Message("x", "s"), Message("y", "s")),
            (Receiver("r", ("x", "y")),),
        )
        cases = [
            (choose_two(2), [GF2, GF3, Z4, D2]),
            (triangle(), [GF2, GF3, Z4]),
            (diamond(), [GF2, Z4]),
            (one_edge_two_demands, [GF2, GF3, Z4, D2]),
            (bottleneck_copies, [GF2, GF3, Z4, D2]),
        ]
        for net, specs in cases:
            for spec in specs:
                fast = solve_brute(net, spec) is not None
                full = _solvable_full_space(net, spec)
                assert fast == full, (net.nodes, spec)


class TestConstruction:
    def test_threshold(self):
        assert verify(choose_two(5), choose_two_field_solution(5, GF4))
        with pytest.raises(ValueError):
            choose_two_field_solution(6, GF4)
        with pytest.raises(ValueError):
            choose_two_field_solution(3, Z4)

    @pytest.mark.parametrize(
        "n,spec", [(3, GF2), (4, GF3), (5, GF4), (5, GF5), (6, GF5), (4, GF4)]
    )
    def test_constructions_verify(self, n, spec):
        assert verify(choose_two(n), choose_two_field_solution(n, spec))

    def test_large_field_takes_only_the_elements_it_uses(self):
        spec = parse_ring("GF(2^20)")
        start = time.perf_counter()
        code = choose_two_field_solution(4, spec)
        assert time.perf_counter() - start < 0.5
        assert verify(choose_two(4), code)
        small = galois_field(2, 4)
        firsts = [c[1] for e, c in choose_two_field_solution(12, small).edge_coeffs.items()
                  if e.startswith("lam") and e != "lam01"]
        assert firsts == elements(small)[:11]


class TestProductCode:
    def test_two_six_product(self):
        ts = two_six()
        s4 = solve_brute(ts, GF4)
        s3 = solve_brute(ts, GF3)
        combined = product_code(ts, [(GF4, s4), (GF3, s3)])
        assert combined.ring == Product((GF4, GF3))
        assert verify(ts, combined)

    def test_single_entry(self):
        net = choose_two(3)
        c = solve_brute(net, GF2)
        wrapped = product_code(net, [(GF2, c)])
        assert wrapped.ring == Product((GF2,))
        assert verify(net, wrapped)

    def test_projection_round_trip(self):
        net = choose_two(3)
        c2 = solve_brute(net, GF2)
        c3 = solve_brute(net, GF3)
        combined = product_code(net, [(GF2, c2), (GF3, c3)])
        for j in range(2):
            back = map_code(net, combined, projection(combined.ring, j))
            assert verify(net, back)

    def test_rejects_unverified(self):
        net = choose_two(3)
        c = solve_brute(net, GF2)
        broken = ScalarLinearCode(GF2, dict(c.edge_coeffs), {})
        with pytest.raises(ValueError):
            product_code(net, [(GF2, broken)])


class TestMapAndLift:
    def test_mod_reduction_relay(self):
        from netcorpus import relay_chain

        net = relay_chain()
        c = solve_brute(net, Z4)
        out = map_code(net, c, mod_reduction(Z4, IntegersMod(2)))
        assert verify(net, out)

    def test_dual_augmentation(self):
        net = choose_two(3)
        c = solve_brute(net, DualNumbers(3))
        out = map_code(net, c, dual_augmentation(3))
        assert out.ring == GF3 and verify(net, out)

    def test_lift_examples(self):
        net = choose_two(3)
        c = solve_brute(net, GF2)
        assert verify(net, lift_subring(net, c, GF4))
        assert verify(net, lift_subring(net, c, D2))
        same = lift_subring(net, c, GF2)
        assert code_to_json(same) == code_to_json(c)

    def test_lift_gf4_to_gf16(self):
        net = choose_two(4)
        c = solve_brute(net, GF4)
        out = lift_subring(net, c, galois_field(2, 4))
        assert verify(net, out)

    def test_rejects_nonsurjective_map(self):
        from ringcode.rings import subring_inclusion

        net = choose_two(3)
        c = solve_brute(net, GF2)
        with pytest.raises(ValueError):
            map_code(net, c, subring_inclusion(GF2, GF4))

    def test_transport_over_corpus(self):
        """Every verified (network, code, hom) combination must stay verified
        after coefficient mapping."""
        red = mod_reduction(Z4, IntegersMod(2))
        aug = dual_augmentation(2)
        for net in corpus():
            cz = solve_brute(net, Z4)
            cd = solve_brute(net, D2)
            assert cz is not None and cd is not None
            assert verify(net, map_code(net, cz, red))
            assert verify(net, map_code(net, cd, aug))


class TestJson:
    def test_network_round_trip(self):
        for net in corpus() + [two_six()]:
            data = network_to_json(net)
            assert network_from_json(json.loads(json.dumps(data))) == net

    def test_field_names(self):
        data = network_to_json(two_six())
        assert set(data) == {"nodes", "edges", "messages", "receivers"}
        assert set(data["edges"][0]) == {"id", "tail", "head"}
        assert set(data["messages"][0]) == {"id", "source"}
        assert set(data["receivers"][0]) == {"node", "demands"}

    def test_code_round_trip(self):
        ts = two_six()
        ct3 = choose_two(3)
        cases = [
            (ts, solve_brute(ts, GF3)),
            (ts, solve_brute(ts, GF4)),
            (ct3, solve_brute(ct3, D2)),
            (ct3, solve_brute(ct3, Z4)),
            (
                ts,
                product_code(
                    ts, [(GF4, solve_brute(ts, GF4)), (GF3, solve_brute(ts, GF3))]
                ),
            ),
        ]
        for net, code in cases:
            assert code is not None
            data = code_to_json(code)
            back = code_from_json(json.loads(json.dumps(data)))
            assert verify(net, back)
            assert code_to_json(back) == data

    @staticmethod
    def _malformed():
        """(loader, JSON value, error text) for shapes the README does not give:
        each part of a network or code missing or of another JSON kind."""
        net, code = network_to_json(choose_two(2)), code_to_json(solve_brute(choose_two(2), GF2))
        edited = lambda data, key, value: {**data, key: value}
        return [(network_from_json, data, f"malformed network JSON: {text}") for data, text in [
            ({"nodes": []}, "edges must be a list"),
            (None, "a network must be an object"),
            (edited(net, "nodes", "sm01"), "nodes must be a list"),
            (edited(net, "nodes", [1, *net["nodes"][1:]]), "nodes must hold strings only"),
            (edited(net, "edges", [["lam01", "s", "m01"]]), "edges[0] must be an object"),
            (edited(net, "edges", [{"id": "lam01", "tail": "s"}]), "edges[0].head must be a string"),
            (edited(net, "messages", [{"id": 0, "source": "s"}]), "messages[0].id must be a string"),
            (edited(net, "receivers", [{"node": 7, "demands": []}]), "receivers[0].node must be a string"),
            (edited(net, "receivers", [{"node": "r01x02", "demands": "xy"}]), "receivers[0].demands must be a list"),
        ]] + [(code_from_json, data, f"malformed code JSON: {text}") for data, text in [
            ({"ring": "GF(2)"}, "edges must be an object"),
            ([], "a code must be an object"),
            (edited(code, "ring", 2), "ring must be a string"),
            (edited(code, "edges", {**code["edges"], "lam01": "01"}), "edges['lam01'] must be a list"),
            (edited(code, "edges", {**code["edges"], "lam01": [0, 1]}), "edges['lam01'] must hold strings only"),
            (edited(code, "decoders", []), "decoders must be an object"),
            (edited(code, "decoders", {"r01x02": ["0", "1"]}), "decoder key 'r01x02' is not node:message"),
        ]]

    def test_malformed(self):
        net, code = choose_two(2), solve_brute(choose_two(2), GF2)
        assert network_from_json(network_to_json(net)) == net and code_from_json(code_to_json(code)) == code
        for load, data, text in self._malformed():
            with pytest.raises(ValueError) as err:
                load(data)
            assert str(err.value) == text, data
