"""Transcript digest of one fixed script — are two checkouts' answers the same?

    PYTHONHASHSEED=0 PYTHONPATH=<checkout>/src python tools/transcript_digest.py <workers> [--warm] [--check]
    PYTHONPATH=<checkout>/src python tools/transcript_digest.py <workers> --lifted <backend> [--check]

``workers`` is ``none`` (the session omits the argument), an int, or
``custom`` (a ``ShardExecutor(2)`` with small plan parameters).  The
script runs ``query``, ``confidence_all`` (karp-luby / naive-mc / auto, and
an ``auto`` whose thresholds send most DNFs to its enclosure-sized
sampler),
a single-tuple confidence, ``topk`` and ``evaluate_with_guarantee`` on
both trial backends with fixed seeds and prints a SHA-256 prefix per
section (``--sections``) and six totals:

* ``top-level-sampling`` — sections whose trials are drawn by the
  session's executor (short DNF lists, narrow σ̂, top-k);
* ``all`` — plus the sections whose trials are drawn *inside a shard
  kernel* (a 48-tuple ``confidence_all``, a 20-candidate σ̂);
* ``conf-operators`` — a separate script (in neither total above): the
  confidence-closing operators ``conf`` / ``aconf`` / ``cert`` / σ̂
  inside queries, ``db.confidence`` and ``result.confidences()``, under
  the five non-bounds strategies on 6- and 24-tuple relations, and the
  same operators on a plain ``UEvaluator``; every block ends with the
  next draw of its generator, so a shifted stream shows even where the
  answers agree;
* ``enclosures`` — a third script (in no other total): the consumers of
  dissociation enclosures with pruning *on* — ``topk`` at two k and
  ``evaluate_with_guarantee`` at two seeds, in a row on one session, on
  relations whose candidates are partly certified by their enclosure and
  partly sampled.  A checkout that memoises enclosures per session must
  print what one that solves them at every call prints.
* ``lifted`` — a fourth script (in no other total): safe and unsafe
  plans over float- and ``Fraction``-weighted tuple-independent
  relations through every entry point that has the plan in hand
  (``conf`` inside a query, ``db.confidence``, ``confidence_all``,
  ``result.confidences()``, ``result.confidence(row)``, ``topk``) and
  what a fresh ``db.query`` shows (``rows``, ``columns``, ``complete``,
  then its relation's rows), each asked cold and then warm on one
  session.  The safe ones are answered extensionally (step 0 of the conf
  seam), in a canonical multiplication order, and conditions print in
  sorted order, so this total must not move with
  ``PYTHONHASHSEED``, the backend or the worker count:
  ``--lifted <backend>`` (``numpy`` / ``python`` / ``auto``) prints it
  alone, at that backend, in a fraction of a second — CI compares the
  eight combinations of hash seed 0 / 1 × backend × workers none / 2.
* ``float-bounds`` — a fifth script (in no other total): ``confidence_all``
  under ``auto`` and ``karp-luby`` on both backends over float-weighted
  bipartite 2-DNFs that exhaust the bound budget, printing each report's
  value, trial count and enclosure; then under ``exact-decomposition``
  and ``dissociation-bounds`` at budgets 0 and default over
  float-weighted clauses of three and four literals written in shuffled
  item orders.  The other enclosure scripts weigh clauses in
  ``Fraction``s, where the order of the solvers' multiplications cannot
  show; here the last bit of each clause weight and q_ij can.

``--warm`` asks every bounds-consuming section (top-k, σ̂ narrow and
20-candidate, the ``enclosures`` script) a second time on the same
session with the session RNG re-seeded and digests the second pass: the
totals must equal the cold ones, whatever the session remembered.

``--check`` also compares every printed total with its committed value
in ``tools/transcript_digests.txt`` and exits 1 on a difference, so an
answer that moves on every worker count at once still fails; a Python
version that prints another value for some total pins it there under
``<total>@<major>.<minor>``.

Pin ``PYTHONHASHSEED`` for every total but ``lifted``: the first four
transcripts embed ``repr`` of conditions, and ``float-bounds`` samples
clauses in the relation's stored order.  Each total uses only names that
exist on both sides of the change it was written to check (CHANGES.md
records the digests of both commits).
"""

import hashlib
import math
import pathlib
import random
import sys
from fractions import Fraction

import repro
from repro.algebra.builder import literal, rel
from repro.algebra.expressions import col, lit
from repro.confidence.strategies import AutoStrategy, DissociationBounds
from repro.generators.tpdb import add_tuple_independent
from repro.urel.conditions import Condition
from repro.urel.evaluate import UEvaluator
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor


def sampled_db(n_tuples, n_vars=10, clauses=4, seed=3):
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(n_vars):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    rows = []
    for t in range(n_tuples):
        for _ in range(clauses):
            cond = Condition(
                {("x", rng.randrange(n_vars)): rng.randint(0, 1) for _ in range(2)}
            )
            rows.append((cond, (t,)))
    # A second relation to join against (exercises the algebra).
    srows = [
        (Condition({("x", i % n_vars): i % 2}), (i % n_tuples, i))
        for i in range(3 * n_tuples)
    ]
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    db.set_relation("S", URelation.from_rows(("A", "B"), srows))
    return db


def k33_db(targets=(0.08, 0.85, 0.2, 0.45, 0.3, 0.6)):
    w = VariableTable()
    rows = []
    for t, target in enumerate(targets):
        q = Fraction(1.0 - (1.0 - math.sqrt(target)) ** (1.0 / 3.0)).limit_denominator(64)
        for side in "xy":
            for i in range(3):
                w.add((side, t, i), {1: q, 0: 1 - q})
        rows += [
            (Condition({("x", t, a): 1, ("y", t, b): 1}), (t,))
            for a in range(3)
            for b in range(3)
        ]
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def sigma_db(n_groups, clauses=3, seed=5):
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(8):
        w.add(("v", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    rows = []
    for g in range(n_groups):
        for _ in range(clauses):
            cond = Condition({("v", rng.randrange(8)): rng.randint(0, 1) for _ in range(2)})
            rows.append((cond, (g,)))
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def sampling_auto(eps, backend):
    """``auto`` with steps 3 and 4 starved, so ``sampled_db``'s DNFs reach step 5."""
    return AutoStrategy(eps, 0.2, backend=backend, max_exact_size=0, bounds_budget=0)


def connect(db, workers, **kw):
    if workers == "none":
        return repro.connect(db, **kw)
    if workers == "custom":
        return repro.connect(
            db,
            workers=ShardExecutor(2, min_shard_pairs=64, min_shard_items=2, min_shard_trials=256),
            **kw,
        )
    return repro.connect(db, workers=int(workers), **kw)


def report_key(rep):
    return (repr(rep.value), rep.samples, rep.method, rep.exact)


WARM = "--warm" in sys.argv


def asked(db, seed, ask, warm_up=None):
    """``ask()`` on a session seeded with ``seed`` — under ``--warm``, its second asking.

    The first pass (``warm_up`` where an identical call would only be
    answered by the report memo) leaves the session whatever it
    remembers; re-seeding rewinds the session stream to where the cold
    answer starts.
    """
    if WARM:
        (warm_up or ask)()
        db.rng.seed(seed)
    return ask()


def topk_key(rep):
    return (
        [(e.row, repr(e.value), repr(e.lower), repr(e.upper), e.trials, e.source)
         for e in rep.entries],
        rep.bounds_decided, rep.sampled, rep.total_trials, rep.rounds,
    )


def driver_key(rep):
    return (
        sorted(map(repr, rep.relation.rows)),
        rep.rounds, rep.evaluations, rep.bounds_certified, rep.history,
        sorted((repr(r), b) for r, b in rep.tuple_bounds.items()),
        [(d.data, d.decision.value, d.decision.total_trials, d.decision.certified_by_bounds,
          sorted(d.decision.estimates.items())) for d in rep.decisions],
    )


def transcript(workers):
    sections = {}
    for backend in ("numpy", "python"):
        # -- query + confidence_all on a SHORT list (4 tuples: per-tuple trial sharding)
        out = []
        for strategy in ("karp-luby", "naive-mc", "auto", sampling_auto(0.3, backend)):
            with connect(sampled_db(6), workers, strategy=strategy, eps=0.3, delta=0.2,
                         rng=11, backend=backend) as db:
                q = db.query(rel("R").join(rel("S")).project(["A"]))
                out.append(sorted(map(repr, q.relation.rows)))
                out.append(sorted((r, report_key(p)) for r, p in db.confidence_all("R").items()))
                out.append(sorted((r, report_key(p)) for r, p in db.confidence_all("R").items()))
                out.append(report_key(db.query("R").confidence((0,))))
        sections[f"{backend}/conf-short"] = out
        # -- confidence_all on a LONG list (48 tuples: the DNF list itself shards)
        out = []
        for strategy in ("karp-luby", "naive-mc", "auto", sampling_auto(0.4, backend)):
            with connect(sampled_db(48), workers, strategy=strategy, eps=0.4, delta=0.2,
                         rng=11, backend=backend) as db:
                out.append(sorted((r, report_key(p)) for r, p in db.confidence_all("R").items()))
        sections[f"{backend}/conf-long"] = out
        # -- topk
        with connect(k33_db(), workers, eps=0.2, delta=0.05, rng=7, backend=backend) as db:
            rep = asked(
                db, 7,
                lambda: db.topk("R", 2, bounds_budget=0),
                warm_up=lambda: db.topk("R", 3, bounds_budget=0),
            )
            assert rep.total_trials > 0
            sections[f"{backend}/topk"] = [
                [(e.row, repr(e.value), e.trials, e.source) for e in rep.entries],
                rep.total_trials, rep.rounds,
            ]
        # -- evaluate_with_guarantee, narrow (4 candidates) and wide (20)
        q = rel("R").approx_select(col("P1") > lit(0.4), groups=[["A"]])
        for label, n in (("narrow", 4), ("wide", 20)):
            with connect(sigma_db(n), workers, strategy="exact-decomposition", rng=9,
                         backend=backend) as db:
                rep = asked(
                    db, 9,
                    lambda: db.evaluate_with_guarantee(q, delta=0.2, eps0=0.25, bounds_budget=0),
                )
                sections[f"{backend}/sigma-{label}"] = [
                    sorted(map(repr, rep.relation.rows)),
                    rep.rounds,
                    sorted((repr(r), b) for r, b in rep.tuple_bounds.items()),
                    [(d.data, d.decision.value, d.decision.total_trials,
                      sorted(d.decision.estimates.items())) for d in rep.decisions],
                ]
    return sections


def conf_operator_transcript(workers):
    r, joined = rel("R"), rel("R").join(rel("S")).project(["A"])
    operators = {
        "conf": r.conf(),
        "aconf": r.approx_conf(0.3, 0.2),
        "aconf/join": joined.approx_conf(0.3, 0.2),
        # (a, 0) and (a, 1) share one lineage: a deduping batch would draw once.
        "aconf/duplicates": r.product(literal(["C"], [[0], [1]])).approx_conf(0.3, 0.2),
        "cert": r.cert(),
        "aselect": r.approx_select(col("P1") > lit(0.4), groups=[["A"]]),
    }

    def rows(relation):
        return sorted(map(repr, relation.rows))

    sections = {}
    for backend in ("numpy", "python"):
        for n_tuples in (6, 24):  # from 16 tuples on, a DNF list shards
            for strategy in (
                "exact-decomposition", "exact-enumeration", "karp-luby", "naive-mc", "auto",
            ):
                with connect(sampled_db(n_tuples), workers, strategy=strategy, eps=0.3,
                             delta=0.2, rng=13, backend=backend) as db:
                    out = [(name, rows(db.query(q).relation)) for name, q in operators.items()]
                    out.append(rows(db.confidence("R").relation))
                    out.append(rows(db.confidence("R", strategy="karp-luby").relation))
                    reports = db.query(joined).confidences()
                    out.append(sorted((row, report_key(rep)) for row, rep in reports.items()))
                    out.append(repr(db.rng.random()))
                sections[f"{backend}/{n_tuples}/{strategy}"] = out
            evaluator = UEvaluator(sampled_db(n_tuples), rng=3, backend=backend)
            out = [(name, rows(evaluator.evaluate(q.q).relation)) for name, q in operators.items()]
            out.append(repr(evaluator.rng.random()))
            sections[f"{backend}/{n_tuples}/UEvaluator"] = out
    return sections


def contested_db(n_groups):
    """``sigma_db`` plus two circulant bipartite 2-DNFs (36 clauses over private
    variables) that the default bound budget encloses in [0.79, 0.97] but
    does not crack: ``P1 > 0.8`` certifies the groups and samples these."""
    db = sigma_db(n_groups)
    rows = list(db.relation("R").rows)
    side, offsets = 9, (0, 1, 2, 3)
    for t in (1000, 1001):
        for i in range(side):
            db.w.add(("x", t, i), {1: Fraction(1, 3), 0: Fraction(2, 3)})
            db.w.add(("y", t, i), {1: Fraction(2, 5), 0: Fraction(3, 5)})
        rows += [
            (Condition({("x", t, i): 1, ("y", t, (i + d) % side): 1}), (t,))
            for i in range(side)
            for d in offsets
        ]
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def enclosure_transcript(workers):
    q = rel("R").approx_select(col("P1") > lit(0.8), groups=[["A"]])
    sections = {}
    for backend in ("numpy", "python"):
        for label, n in (("narrow", 4), ("wide", 20)):
            with connect(contested_db(n), workers, eps=0.3, delta=0.2, rng=9,
                         backend=backend) as db:
                def consumers():
                    out = [topk_key(db.topk("R", k)) for k in (2, 3)]
                    out.append(driver_key(db.evaluate_with_guarantee(q, delta=0.2, eps0=0.1)))
                    out.append(
                        driver_key(db.evaluate_with_guarantee(q, delta=0.1, eps0=0.1, rng=4))
                    )
                    out.append(repr(db.rng.random()))
                    return out

                sections[f"{backend}/enclosures-{label}"] = asked(db, 9, consumers)
    return sections


def float_bounds_db(n_tuples=3, side=9, offsets=(0, 1, 3), seed=21):
    """Float-weighted circulant bipartite 2-DNFs that exhaust the default bound
    budget, so their enclosures come from the pairwise base case in float
    arithmetic; the variable probabilities are low enough that Bonferroni's
    Σp_i − Σq_ij, and with it the last bit of every q_ij, reaches the
    printed lower bounds.  Tuple 0 also carries a three-valued variable,
    one of whose clauses asks for a value outside its domain (weight 0)."""
    rng = random.Random(seed)
    w = VariableTable()
    rows = []
    for t in range(n_tuples):
        for half in "xy":
            for i in range(side):
                p = round(rng.uniform(0.1, 0.3), 3)
                w.add((t, half, i), {1: p, 0: 1 - p})
        relabel = list(range(side))
        rng.shuffle(relabel)
        rows += [
            (Condition({(t, "x", i): 1, (t, "y", relabel[(i + d) % side]): 1}), (t,))
            for i in range(side)
            for d in offsets
        ]
    w.add("m", {"a": 0.25, "b": 0.35, "c": 0.4})
    rows += [
        (Condition({"m": value, (0, half, i): 1}), (0,))
        for value, half, i in (("a", "x", 0), ("b", "y", 1), ("c", "x", 2), ("z", "y", 3))
    ]
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def long_clauses_db(n_tuples=4, n_vars=9, n_clauses=10, seed=29):
    """Float-weighted clauses of three and four literals, each written in a
    shuffled item order, over shared two- and three-valued variables: a
    clause weight is a product whose last bit depends on the order it is
    folded in, which two-literal clauses cannot show."""
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(n_vars):
        if i % 3 == 2:
            a, b = rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4)
            w.add(("v", i), {0: a, 1: b, 2: 1 - a - b})
        else:
            p = rng.uniform(0.1, 0.9)
            w.add(("v", i), {1: p, 0: 1 - p})
    rows = []
    for t in range(n_tuples):
        for _ in range(n_clauses):
            chosen = rng.sample(range(n_vars), rng.choice((3, 4)))
            rows.append((Condition([(("v", i), rng.randint(0, 1)) for i in chosen]), (t,)))
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def float_bounds_transcript(workers):
    def reports_key(reports):
        return sorted(
            (row, repr(rep.value), rep.samples, repr(rep.lower), repr(rep.upper))
            for row, rep in reports.items()
        )

    sections = {}
    for backend in ("numpy", "python"):
        for strategy in ("auto", "karp-luby"):
            with connect(float_bounds_db(), workers, strategy=strategy, eps=0.3, delta=0.2,
                         rng=23, backend=backend) as db:
                reports = db.confidence_all("R")
                if strategy == "auto":
                    assert all(rep.lower < rep.upper for rep in reports.values())
                sections[f"{backend}/{strategy}"] = reports_key(reports)
    solvers = {
        "exact-decomposition": "exact-decomposition",
        "bounds-0": DissociationBounds(budget=0),
        "bounds-default": "dissociation-bounds",
    }
    for label, strategy in solvers.items():
        with connect(long_clauses_db(), workers, strategy=strategy) as db:
            sections[f"long-clauses/{label}"] = reports_key(db.confidence_all("R"))
    return sections


def tuple_independent_db(floats, n_rows=40, n_keys=7, seed=17):
    """R(A,B), S(B,C), T(C,D), one variable per row, some rows certain."""
    rng = random.Random(seed)
    db = UDatabase()
    for name, columns in (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))):
        rows = []
        for i in range(n_rows):
            values = (i, rng.randrange(n_keys)) if name == "R" else (rng.randrange(n_keys), i)
            p = 1 if i % 9 == 0 else Fraction(rng.randint(1, 19), 20)
            rows.append((values, float(p) if floats and p != 1 else p))
        add_tuple_independent(db, name, columns, rows)
    return db


def lifted_transcript(workers, backend):
    plans = (
        "R",
        "project[B](join(R, S))",
        "project[](join(R, S))",
        "project[B](select[A < 12](join(R, S)))",
        "project[B](join(select[A >= 3](R), S, T))",
        "project[C](join(S, rename[D -> X](select[D < 9](T))))",
        # not hierarchical: per-DNF under auto, small enough to stay exact
        "project[A](select[A < 4](join(R, S, T)))",
    )
    sections = {}
    for weights in ("fraction", "float"):
        source = tuple_independent_db(floats=weights == "float")
        with connect(source, workers, eps=0.3, delta=0.2, rng=5,
                     backend=None if backend == "auto" else backend) as db:
            def ask(q):
                reports = db.confidence_all(q)
                result = db.query(q)
                out = [
                    sorted((row, report_key(rep)) for row, rep in reports.items()),
                    sorted(map(repr, db.query(f"conf[P]({q})").relation.rows)),
                    sorted(map(repr, db.confidence(q).relation.rows)),
                    sorted((row, report_key(rep)) for row, rep in result.confidences().items()),
                    [report_key(db.query(q).confidence(row)) for row in result.rows[:2]],
                    report_key(result.confidence(("absent",) * len(result.columns))),
                    topk_key(db.topk(q, 3)),
                ]
                # what a fresh result shows before and after its relation is built
                fresh = db.query(q)
                out.append((fresh.rows, fresh.columns, fresh.complete))
                out.append(sorted(map(repr, fresh.relation.rows)))
                return out

            for q in plans:
                cold = ask(q)
                assert ask(q) == cold, f"warm answers differ from cold ones: {q}"
                sections[f"{weights}/{q}"] = cold
            sections[f"{weights}/next-draw"] = repr(db.rng.random())
    return sections


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


PINS = pathlib.Path(__file__).with_name("transcript_digests.txt")


def pinned(path=PINS):
    """The committed value of every total for the running Python.

    A line ``<total> <value>`` pins a total; ``<total>@<major>.<minor>
    <value>`` overrides it for that Python version only.
    """
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    pins, overrides = {}, {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, value = line.split()
            name, _, only = key.partition("@")
            if not only:
                pins[name] = value
            elif only == version:
                overrides[name] = value
    return {**pins, **overrides}


def report(totals):
    """Print ``totals``; under ``--check``, exit 1 unless each equals its pin."""
    for name, value in totals.items():
        print(name, value)
    if "--check" in sys.argv:
        pins = pinned()
        wrong = [name for name, value in totals.items() if pins.get(name) != value]
        for name in wrong:
            print(f"{name}: printed {totals[name]}, pinned {pins.get(name)}", file=sys.stderr)
        sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    if "--lifted" in sys.argv:
        only = lifted_transcript(sys.argv[1], sys.argv[sys.argv.index("--lifted") + 1])
        report({"lifted": digest(sorted(only.items()))})
        sys.exit(0)
    sections = transcript(sys.argv[1])
    conf_sections = conf_operator_transcript(sys.argv[1])
    enclosure_sections = enclosure_transcript(sys.argv[1])
    lifted_sections = lifted_transcript(sys.argv[1], "auto")
    float_sections = float_bounds_transcript(sys.argv[1])
    if "--sections" in sys.argv:
        every = {**sections, **conf_sections, **enclosure_sections, **lifted_sections}
        every.update({f"float-bounds/{name}": value for name, value in float_sections.items()})
        for name, value in every.items():
            print(f"{name:24s} {digest(value)}")
    compat = {k: v for k, v in sections.items() if not k.endswith(("conf-long", "sigma-wide"))}
    report(
        {
            "top-level-sampling": digest(sorted(compat.items())),
            "all": digest(sorted(sections.items())),
            "conf-operators": digest(sorted(conf_sections.items())),
            "enclosures": digest(sorted(enclosure_sections.items())),
            "lifted": digest(sorted(lifted_sections.items())),
            "float-bounds": digest(sorted(float_sections.items())),
        }
    )
