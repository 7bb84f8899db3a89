import copy
import itertools
import math
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import pytest

from pktsched import (
    InfeasibleSelection,
    Instance,
    Job,
    ParseError,
    Schedule,
    brute_force_opt,
    canonicalize,
    feasible_at,
    opt_schedule,
    pending_set,
    read_instance_csv,
    schedule_weight,
    validate_schedule,
    write_instance_csv,
)
from pktsched.core import MAX_HORIZON, heavier_first
from pktsched.lap import LapSlot
from conftest import mk, random_instance
from reference import dominates, prefix_weight


def test_job_validation():
    with pytest.raises(ValueError, match=r"^job 'x': release must be >= 0$"):
        Job("x", -1, 2, 1.0)
    with pytest.raises(ValueError, match=r"^job 'x': deadline must be >= release \+ 1$"):
        Job("x", 2, 2, 1.0)  # needs deadline >= release + 1
    with pytest.raises(ValueError, match=r"^job 'x': weight must be finite and >= 0$"):
        Job("x", 0, 1, -0.5)
    # replace builds through __init__, so it validates too.
    job = Job("x", 0, 1, 0.5)
    with pytest.raises(ValueError, match=r"^job 'x': release must be >= 0$"):
        replace(job, release=-1)
    with pytest.raises(ValueError, match=r"^job 'x': deadline must be >= release \+ 1$"):
        replace(job, deadline=0)
    with pytest.raises(ValueError, match=r"^job 'x': weight must be finite and >= 0$"):
        replace(job, weight=math.nan)
    assert replace(job, weight=0.25) == Job("x", 0, 1, 0.25)


@pytest.mark.parametrize(
    "record, text",
    [(Job("a", 0, 2, 0.5), "Job(id='a', release=0, deadline=2, weight=0.5)"),
     (LapSlot(3, "prediction", "a", 0.5, 1.25),
      "LapSlot(t=3, source='prediction', job_id='a', weight=0.5, local_ratio=1.25)")],
    ids=["Job", "LapSlot"],
)
def test_record_contract(record, text):
    # Immutable, hashable value records that compare by field, never equal
    # a plain tuple, and survive pickle and copy.
    names = [f.name for f in fields(record)]
    values = tuple(getattr(record, name) for name in names)
    twin = type(record)(*values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert repr(record) == text
    assert record != values and values != record
    assert replace(record) == record
    for name in [*names, "extra"]:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    assert not hasattr(record, "extra") and not hasattr(record, "__dict__")
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                   copy.deepcopy(record)):
        assert type(copied) is type(record) and copied == record


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_job_rejects_non_finite_weight(weight):
    with pytest.raises(ValueError, match="finite"):
        Job("x", 0, 1, weight)


def test_feasible_at_examples():
    eps = Job("a", 0, 1, 0.01)
    assert feasible_at(eps, 0)
    assert not feasible_at(eps, 1)  # expired exactly at its deadline slot
    assert not feasible_at(Job("b", 1, 2, 1.0), 0)  # not yet released


def test_feasible_slot_count():
    rng = random.Random(7)
    for _ in range(50):
        r = rng.randint(0, 5)
        d = rng.randint(r + 1, 9)
        job = Job("x", r, d, 1.0)
        assert sum(feasible_at(job, t) for t in range(12)) == d - r


def test_pending_set_examples(j2):
    assert {j.id for j in pending_set(j2, set(), 0)} == {"a", "b"}
    assert pending_set(j2, {"a", "b", "c"}, 1) == set()
    assert {j.id for j in pending_set(j2, {"a"}, 1)} == {"b", "c"}


def test_partition_of_released():
    rng = random.Random(11)
    for _ in range(60):
        inst = random_instance(rng)
        ids = [j.id for j in inst.jobs]
        processed = {i for i in ids if rng.random() < 0.4}
        for t in range(inst.horizon + 1):
            released = {j.id for j in inst.jobs if j.release <= t}
            pend = {j.id for j in pending_set(inst, processed, t)}
            expd = {
                j.id
                for j in inst.jobs
                if j.id not in processed and j.deadline < t + 1
            }
            done = processed & released
            assert pend | expd | done == released
            assert not (pend & expd) and not (pend & done) and not (expd & done)


def test_schedule_weight_examples(j2):
    a, b = j2.by_id["a"], j2.by_id["b"]
    sched = Schedule((a, b, None))
    assert schedule_weight(sched) == 1.01
    assert prefix_weight(sched, 0) == 0.01
    assert schedule_weight(Schedule((None,))) == 0.0
    assert schedule_weight(Schedule((None, b, None))) == 1.0


def test_dominates_examples():
    assert dominates(Job("x", 0, 1, 5.0), Job("y", 0, 2, 3.0))
    assert not dominates(Job("x", 0, 2, 5.0), Job("y", 0, 1, 3.0))
    # Tied weights: neither job is strictly heavier, so neither dominates.
    inst = mk([("x", 0, 1, 3.0), ("y", 0, 1, 3.0)])
    x, y = inst.by_id["x"], inst.by_id["y"]
    assert not dominates(x, y) and not dominates(y, x)


def test_dominates_strict_partial_order():
    rng = random.Random(13)
    for _ in range(30):
        inst = random_instance(rng, max_jobs=8)
        jobs = inst.jobs
        for j in jobs:
            assert not dominates(j, j)
        for a, b in itertools.permutations(jobs, 2):
            assert not (dominates(a, b) and dominates(b, a))
        for a, b, c in itertools.permutations(jobs, 3):
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


def test_canonicalize_examples(j2):
    sched = canonicalize(j2, {"b", "c"})
    assert [j.id if j else None for j in sched.slots] == ["b", "c", None]

    empty = canonicalize(j2, set())
    assert all(j is None for j in empty.slots)

    inst = mk([("p", 0, 1, 2.0), ("q", 0, 2, 3.0)])
    sched = canonicalize(inst, {"p", "q"})
    assert [j.id if j else None for j in sched.slots] == ["p", "q", None]


def test_canonicalize_tie_breaks():
    # Equal deadlines: larger weight first (the dominance-consistent pick).
    inst = mk([("p", 0, 2, 1.0), ("q", 0, 2, 3.0)])
    sched = canonicalize(inst, {"p", "q"})
    assert [j.id for j in sched.slots if j] == ["q", "p"]


def test_canonicalize_infeasible():
    inst = mk([("p", 0, 1, 1.0), ("q", 0, 1, 2.0)])
    with pytest.raises(InfeasibleSelection):
        canonicalize(inst, {"p", "q"})
    with pytest.raises(KeyError):
        canonicalize(inst, {"nope"})


def test_canonicalize_error_messages():
    # The first job in edf_first order still in the heap when its deadline
    # comes is named, with the slot; unknown ids are named first, sorted.
    inst = mk([("p", 0, 1, 1.0), ("q", 0, 1, 2.0), ("r", 0, 1, 2.0), ("s", 1, 3, 0.5)])
    cases = [
        ({"p", "q"}, "job 'p' expires unscheduled at slot 1"),
        ({"q", "r"}, "job 'r' expires unscheduled at slot 1"),
        ({"p", "q", "r", "s"}, "job 'r' expires unscheduled at slot 1"),
    ]
    for selected, message in cases:
        with pytest.raises(InfeasibleSelection) as raised:
            canonicalize(inst, selected)
        assert str(raised.value) == message
    with pytest.raises(KeyError) as raised:
        canonicalize(inst, {"zz", "p", "q", "nope"})
    assert raised.value.args == ("selected ids not in instance: ['nope', 'zz']",)


def test_canonicalize_agrees_with_brute_force_feasibility():
    # For every subset of a small instance: schedulable (per the exhaustive
    # oracle) iff canonicalize succeeds, with exact weight and validity.
    rng = random.Random(17)
    for _ in range(10):
        inst = random_instance(rng, max_jobs=7, max_horizon=7)
        ids = [j.id for j in inst.jobs]
        for bits in range(1 << len(ids)):
            chosen = {ids[i] for i in range(len(ids)) if bits >> i & 1}
            sub = Instance(
                tuple(j for j in inst.jobs if j.id in chosen), inst.horizon
            )
            total = math.fsum(j.weight for j in sub.jobs)
            schedulable = brute_force_opt(sub)[0] == total
            if schedulable:
                sched = canonicalize(inst, chosen)
                ok, violations = validate_schedule(inst, sched)
                assert ok, violations
                assert schedule_weight(sched) == total
            else:
                with pytest.raises(InfeasibleSelection):
                    canonicalize(inst, chosen)


def test_validate_schedule(j2):
    ok, violations = validate_schedule(j2, opt_schedule(j2))
    assert ok and not violations

    c = j2.by_id["c"]
    ok, violations = validate_schedule(j2, Schedule((c, None, None)))
    assert not ok and any("before release" in v for v in violations)

    b = j2.by_id["b"]
    ok, violations = validate_schedule(j2, Schedule((b, b, None)))
    assert not ok and any("more than once" in v for v in violations)

    stranger = Job("zz", 0, 2, 0.5)
    ok, violations = validate_schedule(j2, Schedule((stranger, None, None)))
    assert not ok and any("not in instance" in v for v in violations)


def test_validate_schedule_compares_records_that_are_not_the_instances(j2):
    # A scheduled record that is not the instance's own object is compared
    # field by field: a changed weight is caught, an equal copy is not.
    a, b = j2.by_id["a"], j2.by_id["b"]
    heavier = Job(b.id, b.release, b.deadline, b.weight + 1.0)
    ok, violations = validate_schedule(j2, Schedule((a, heavier, None)))
    assert not ok
    assert violations == ["slot 1: job 'b' differs from instance record"]
    copy = Job(b.id, b.release, b.deadline, b.weight)
    assert copy is not b
    assert validate_schedule(j2, Schedule((a, copy, None))) == (True, [])
    # An object with the same fields that is not a Job differs, as a Job
    # never equals it.
    lookalike = SimpleNamespace(id=b.id, release=b.release, deadline=b.deadline, weight=b.weight)
    assert validate_schedule(j2, Schedule((a, lookalike, None)))[1] == [
        "slot 1: job 'b' differs from instance record"
    ]


def test_instance_invariants():
    with pytest.raises(ValueError):
        Instance.of([Job("a", 0, 2, 1.0), Job("a", 0, 3, 2.0)])
    with pytest.raises(ValueError):
        Instance.of([Job("a", 0, 5, 1.0)], horizon=3)  # deadline past horizon
    # Built directly, the jobs must already be in increasing id order.
    b, a = Job("b", 0, 2, 1.0), Job("a", 0, 2, 2.0)
    with pytest.raises(ValueError, match=r"^instance jobs not sorted by id \(use Instance.of\)$"):
        Instance((b, a), 2)
    with pytest.raises(ValueError, match="^duplicate job ids in instance$"):
        Instance((a, a), 2)
    # Columns out of id order are sorted first; a duplicate id still fails.
    with pytest.raises(ValueError, match="^duplicate job ids in instance$"):
        Instance.from_columns(("b", "a", "b"), (0, 0, 1), (2, 2, 2), (1.0, 2.0, 3.0))
    assert Instance.of([b, a]).jobs == (a, b)
    # The horizon is bounded. Building an instance allocates no per-slot
    # table, so one at the bound is cheap, and past it nothing is built.
    assert Instance((), MAX_HORIZON).horizon == MAX_HORIZON
    too_far = rf"^horizon = {MAX_HORIZON + 1} exceeds MAX_HORIZON = {MAX_HORIZON}$"
    with pytest.raises(ValueError, match=too_far):
        Instance((), MAX_HORIZON + 1)
    with pytest.raises(ValueError, match=too_far):
        Instance.of([Job("a", 0, MAX_HORIZON + 1, 1.0)])
    # Distinct weights pass through untouched.
    inst = mk([("a", 0, 2, 0.25), ("b", 0, 2, 0.5)])
    assert [j.weight for j in inst.jobs] == [0.25, 0.5]


def test_instance_columns_records_and_value_contract():
    jobs = [Job("b", 0, 2, 0.5), Job("a", 1, 3, 0.5), Job("c", 0, 1, 2.0)]
    inst = Instance.of(jobs)
    assert (inst.ids, inst.releases, inst.deadlines, inst.weights, inst.horizon) == (
        ("a", "b", "c"), (1, 0, 0), (3, 2, 1), (0.5, 0.5, 2.0), 3
    )
    # The same jobs as columns, in any order, make an equal instance that
    # builds no record until one is read.
    twin = Instance.from_columns(["c", "b", "a"], [0, 0, 1], [1, 2, 3], [2.0, 0.5, 0.5])
    assert twin == inst and hash(twin) == hash(inst) and "jobs" not in vars(twin)
    # Heavier first; on a weight tie the smaller id first.
    assert twin.by_rank.ids == ("c", "a", "b") and twin.rank_of == {"c": 0, "a": 1, "b": 2}
    # Each record is built once and shared; an instance built from records
    # keeps them.
    a = twin.record(1)
    assert a == jobs[1] and twin.record(1) is a and twin.jobs[0] is a
    assert inst.record(1) is inst.jobs[0] is jobs[1]
    # A value: the five fields compare, hash and print; it pickles and
    # copies, and no field can be set.
    for copied in (pickle.loads(pickle.dumps(twin)), copy.copy(twin), copy.deepcopy(twin)):
        assert type(copied) is Instance and copied == inst
    with pytest.raises(FrozenInstanceError):
        inst.horizon = 4
    assert inst != inst.jobs and repr(inst) == (
        "Instance(ids=('a', 'b', 'c'), releases=(1, 0, 0), deadlines=(3, 2, 1), "
        "weights=(0.5, 0.5, 2.0), horizon=3)"
    )
    # The columns are checked as Job and Instance.of check them: the first
    # job in the given order that Job rejects raises.
    with pytest.raises(ValueError, match=r"^job 'y': release must be >= 0$"):
        Instance.from_columns(("z", "y", "x"), (0, -1, 0), (1, 1, 1), (1.0, 1.0, math.nan))
    with pytest.raises(ValueError, match="^duplicate job ids in instance$"):
        Instance.from_columns(("a", "a"), (0, 0), (1, 1), (1.0, 1.0))
    with pytest.raises(ValueError, match="^job 'a': deadline exceeds horizon 1$"):
        Instance.from_columns(("b", "a"), (0, 0), (2, 2), (1.0, 1.0), 1)


RANK_CASES = {
    "empty": [],
    "one": [("a", 0, 1, 0.5)],
    "two": [("a", 0, 1, 0.25), ("b", 0, 2, 0.75)],
    "two-tied": [("b", 0, 2, 0.75), ("a", 0, 1, 0.75)],
    "all-equal": [(f"j{i}", i % 3, 4, 0.5) for i in (4, 0, 3, 1, 2)],
    # -0.0 is a valid weight and ties with 0.0: smaller id first.
    "signed-zeros": [
        ("d", 0, 2, 0.0), ("b", 0, 1, -0.0), ("e", 1, 2, 1.0), ("a", 0, 1, 0.0), ("c", 0, 2, -0.0)
    ],
    "mixed": [
        ("q", 0, 3, 0.1), ("p", 1, 3, 2.0), ("z", 0, 1, 0.1), ("b", 2, 3, 2.0), ("m", 0, 2, 0.0)
    ],
}


@pytest.mark.parametrize("case", list(RANK_CASES))
def test_rank_order_contract(case):
    # by_rank, rank_of and record(rank) are heavier_first order, whichever
    # way the instance is built: from records, or from columns in or out
    # of id order.
    jobs = [Job(*row) for row in RANK_CASES[case]]
    ranked = sorted(jobs, key=heavier_first)
    expected = [(j.id, j.release, j.deadline, repr(j.weight)) for j in ranked]
    columns = [tuple(getattr(j, f) for j in jobs) for f in ("id", "release", "deadline", "weight")]
    id_ordered = [tuple(getattr(j, f) for j in sorted(jobs, key=lambda j: j.id))
                  for f in ("id", "release", "deadline", "weight")]
    builds = {
        "records": Instance.of(jobs),
        "columns-any-order": Instance.from_columns(*columns),
        "columns-id-order": Instance.from_columns(*id_ordered),
    }
    for how, inst in builds.items():
        ids, releases, deadlines, weights = inst.by_rank
        assert list(zip(ids, releases, deadlines, map(repr, weights))) == expected, how
        assert inst.rank_of == {j.id: rank for rank, j in enumerate(ranked)}, how
        records = [inst.record(rank) for rank in inst.ranks]
        assert [(j.id, j.release, j.deadline, repr(j.weight)) for j in records] == expected, how
    # An instance built from records hands back those very records.
    inst = builds["records"]
    assert all(inst.record(rank) is job for rank, job in enumerate(ranked))
    # A one-job or empty instance is its own rank order.
    if len(jobs) < 2:
        assert inst.by_rank == (inst.ids, inst.releases, inst.deadlines, inst.weights)


def test_tied_weights_are_kept_as_given():
    for weights in ([0.5, 0.5, 1e-5], [1e6, 1e6, 1e-9]):
        inst = mk([(f"j{i}", 0, 2, w) for i, w in enumerate(weights)])
        assert [j.weight for j in inst.jobs] == weights


def test_csv_roundtrip(tmp_path, j2):
    tied = mk([("a", 0, 2, 0.5), ("b", 0, 2, 0.5), ("c", 1, 3, 1e-5)])
    for name, inst in (("distinct", j2), ("tied", tied)):
        path = tmp_path / f"{name}.csv"
        write_instance_csv(inst, path)
        again = read_instance_csv(path)
        assert again == inst
        # Rewriting is byte-stable.
        path2 = tmp_path / f"{name}2.csv"
        write_instance_csv(again, path2)
        assert path.read_bytes() == path2.read_bytes()


# Ids a CSV reader could drop or alter: comment markers, blank and
# padded ids, quotes, delimiters and line breaks.
ODD_IDS = ("#x", " x", "x ", "", " ", "x\ny", 'q"', "c,d", "# horizon=3", "\r", "a\rb")


def test_csv_roundtrip_property_with_odd_ids(tmp_path):
    rng = random.Random(233)
    path = tmp_path / "inst.csv"
    for _ in range(80):
        inst = random_instance(rng, min_jobs=1)
        odd = rng.sample(ODD_IDS, rng.randint(1, min(4, len(inst.jobs))))
        jobs = [
            Job(i, j.release, j.deadline, j.weight) for i, j in zip(odd, inst.jobs)
        ] + list(inst.jobs[len(odd):])
        inst = Instance.of(jobs, inst.horizon + rng.randint(0, 2))
        write_instance_csv(inst, path)
        assert read_instance_csv(path) == inst


def test_csv_comments_only_above_the_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "# note\n\n# horizon=6\nid,release,deadline,weight\n \n"
        "#a,0,1,1.0\n\t\nb,0,2,2.0\n",
        encoding="utf-8",
    )
    expected = mk([("#a", 0, 1, 1.0), ("b", 0, 2, 2.0)], horizon=6)
    assert read_instance_csv(path) == expected
    path.write_text("id,release,deadline,weight\n# horizon=6\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected 4 fields") as exc:
        read_instance_csv(path)
    assert exc.value.line_no == 2


def test_csv_skips_a_byte_order_mark(tmp_path, j2):
    # Spreadsheet programs start a UTF-8 file with the bytes EF BB BF.
    path = tmp_path / "bom.csv"
    write_instance_csv(Instance(j2.jobs, 10), path)
    text = path.read_bytes()
    path.write_bytes(b"\xef\xbb\xbf" + text)
    assert read_instance_csv(path) == Instance(j2.jobs, 10)
    path.write_bytes(b"\xef\xbb\xbf" + text.split(b"\n", 1)[1])
    assert read_instance_csv(path) == j2


def test_csv_horizon_comment(tmp_path, j2):
    path = tmp_path / "inst.csv"
    write_instance_csv(Instance(j2.jobs, 10), path)
    assert read_instance_csv(path).horizon == 10


def test_csv_parse_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("id,release,deadline\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_instance_csv(bad_header)

    bad_row = tmp_path / "r.csv"
    bad_row.write_text(
        "id,release,deadline,weight\na,0,zzz,1.0\n", encoding="utf-8"
    )
    with pytest.raises(ParseError) as exc:
        read_instance_csv(bad_row)
    assert exc.value.line_no == 2

    empty = tmp_path / "e.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        read_instance_csv(empty)


def test_csv_duplicate_id_reports_second_row(tmp_path):
    dup = tmp_path / "d.csv"
    dup.write_text(
        "id,release,deadline,weight\na,0,1,1.0\nb,0,2,2.0\na,1,2,3.0\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="duplicate job id 'a'") as exc:
        read_instance_csv(dup)
    assert exc.value.line_no == 4


def test_csv_weight_sum_past_float_max_reports_its_row(tmp_path):
    # Each weight is finite; the sum first passes the float maximum at d.
    big = tmp_path / "big.csv"
    big.write_text(
        "id,release,deadline,weight\n"
        "a,0,1,1e308\nb,0,2,0.5\nc,0,2,7e307\nd,1,2,1e308\ne,1,3,1e308\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="sum past the float maximum") as exc:
        read_instance_csv(big)
    assert exc.value.line_no == 5
    # Up to the float maximum itself the file reads.
    edge = tmp_path / "edge.csv"
    edge.write_text(
        f"id,release,deadline,weight\na,0,1,{math.ulp(0.0)!r}\n"
        f"b,0,2,{(1.7976931348623157e308 - math.ulp(1e308))!r}\nc,1,2,{math.ulp(1e308)!r}\n",
        encoding="utf-8",
    )
    assert schedule_weight(opt_schedule(read_instance_csv(edge))) == 1.7976931348623157e308


HEADER = "id,release,deadline,weight\n"


@pytest.mark.parametrize(
    "text, message, line_no",
    [
        # The header and the lines above it.
        ("id,release,deadline\n", "expected header id,release,deadline,weight", 1),
        ("# note\n\nid;release;deadline;weight\n", "expected header id,release,deadline,weight", 3),
        ("", "missing header row", 1),
        ("# note\n\n", "missing header row", 1),
        ("# horizon=x\n" + HEADER, "bad horizon comment '# horizon=x'", 1),
        # One fault in a row; blank lines count toward the line number.
        (HEADER + "a,0,1\n", "expected 4 fields, got 3", 2),
        (HEADER + "\n \na,0,1,1.0,5\n", "expected 4 fields, got 5", 4),
        (HEADER + "a,zz,1,1.0\n", "invalid literal for int() with base 10: 'zz'", 2),
        ("\ufeff" + HEADER + "a,0,1,1.0\nb,zz,1,1.0\n", "invalid literal for int() with base 10: 'zz'", 3),
        (HEADER + "a,0,1.5,1.0\n", "invalid literal for int() with base 10: '1.5'", 2),
        (HEADER + "a,0,1,heavy\n", "could not convert string to float: 'heavy'", 2),
        (HEADER + "a,-1,1,1.0\n", "job 'a': release must be >= 0", 2),
        (HEADER + "a,2,2,1.0\n", "job 'a': deadline must be >= release + 1", 2),
        (HEADER + "a,0,1,-0.5\n", "job 'a': weight must be finite and >= 0", 2),
        (HEADER + "a,0,1,nan\n", "job 'a': weight must be finite and >= 0", 2),
        (HEADER + "a,0,1,inf\n", "job 'a': weight must be finite and >= 0", 2),
        # Conversions run left to right, then Job's checks in field order.
        (HEADER + "a,x,y,z\n", "invalid literal for int() with base 10: 'x'", 2),
        (HEADER + "a,-1,0,nan\n", "job 'a': release must be >= 0", 2),
        (HEADER + "b,0,1,1.0\na,0,2,2.0\nb,1,2,3.0\n", "duplicate job id 'b' (first on line 2)", 4),
        (HEADER + "a,0,1,1e308\nb,0,1,1e308\n", "weights sum past the float maximum", 3),
        # A quoted id that spans two lines ends its row on the second.
        (HEADER + '"x\ny",0,zz,1.0\n', "invalid literal for int() with base 10: 'zz'", 3),
        (HEADER + '"x\ny",0,1,1.0\nb,0,1,1.0\n"x\ny",0,1,1.0\n',
         "duplicate job id 'x\\ny' (first on line 3)", 6),
        # Two faults: the first by line wins, and a row fault comes before
        # the weight sum and before the horizon.
        (HEADER + "a,0,1,1.0\na,0,2,1.0\nb,0,1,1.0\nc,0,q,1.0\n",
         "duplicate job id 'a' (first on line 2)", 3),
        (HEADER + "a,0,1,1.0\nc,0,q,1.0\nb,0,1,1.0\na,0,2,1.0\n",
         "invalid literal for int() with base 10: 'q'", 3),
        (HEADER + "a,0,1,1e308\nb,0,1,1e308\nc,0,1,-1\n",
         "job 'c': weight must be finite and >= 0", 4),
        ("# horizon=5\n" + HEADER + "a,1_0,20,1.0\nb, 5,7,nan\n",
         "job 'b': weight must be finite and >= 0", 4),
        ("# horizon=5\n" + HEADER + "a,0,20,1e308\nb,0,7,1e308\n",
         "weights sum past the float maximum", 4),
    ],
)
def test_csv_parse_error_messages_and_lines(tmp_path, text, message, line_no):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as exc:
        read_instance_csv(path)
    assert str(exc.value) == f"line {line_no}: {message}"
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    "text, message",
    [
        # Past the rows, the instance's own checks raise without a line:
        # the first job in id order past the horizon, then the horizon.
        ("# horizon=5\n" + HEADER + "c,0,9,1.0\nb,1_0,20,1.0\na, 0,3,1.0\n",
         "job 'b': deadline exceeds horizon 5"),
        ("# horizon=-1\n" + HEADER, "horizon must be >= 0"),
        ("# horizon=1000001\n" + HEADER, "horizon = 1000001 exceeds MAX_HORIZON = 1000000"),
        (HEADER + "a,0,1000001,1.0\n", "horizon = 1000001 exceeds MAX_HORIZON = 1000000"),
    ],
)
def test_csv_instance_errors_carry_no_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_instance_csv(path)
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_csv_reads_lenient_ints_and_rows_in_any_id_order(tmp_path):
    # int() takes surrounding spaces and digit underscores; rows need not
    # be in id order.
    path = tmp_path / "loose.csv"
    path.write_text(HEADER + "b, 5,1_0,0.5\na,0,2 ,1e-3\n", encoding="utf-8")
    inst = read_instance_csv(path)
    assert inst == mk([("a", 0, 2, 1e-3), ("b", 5, 10, 0.5)])
    assert inst.horizon == 10
