"""Seeded byte-level fuzz of the text readers.

Every input either reads or fails with a typed error: a ``ValueError``
(``ParseError`` and ``UnicodeDecodeError`` are ones) or an ``OSError``.
Each mutant of a small valid input inserts, overwrites or deletes a few
bytes, most often with a token that has broken a reader before.
"""

import random

import pytest

from pktsched import ingest_snap_events, read_instance_csv
from pktsched.experiments import parse_config_file, parse_generator_spec

SEED = 20271
TOKENS = (
    b"inf", b"-inf", b"nan", b"1e400", b"-1e400", b"1_0", b"-1", b"0", b" ",
    b"\xef\xbb\xbf", b"\xff", b'"', b"'", b"\r", b"\n", b"\x00", b",", b"=", b"#",
    b"123456789012345678901234567890", b"-123456789012345678901234567890",
)
INSTANCE_CSV = b"""# horizon=6
id,release,deadline,weight
a,0,2,0.5
b,1,3,1.0
"c d",2,6,0.25
"""
CONFIG = b"""dataset = uniform
sweep = sigma
values = 0, 0.1
T = 5
lo = 1
hi = 3
slack = 4
trials = 2
seed = 3
"""
EVENTS = b"""1 2 86400
1 2 86500
# a comment
1,2,90000
1 2 172800
"""
SPECS = (b"uniform:T=5,lo=1,hi=3,slack=2", b"powerlaw:T=6,a=3,m=20,seed=4")


def _mutants(rng, seed, count):
    for _ in range(count):
        data = seed
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(data))
            token = rng.choice(TOKENS) if rng.random() < 0.8 else bytes([rng.randrange(256)])
            op = rng.randrange(3)
            if op == 0:
                data = data[:at] + token + data[at:]
            elif op == 1:
                data = data[:at] + token + data[at + rng.randint(1, 4):]
            else:
                data = data[:at] + data[at + rng.randint(1, 6):]
        yield data


def _read_file(read):
    def run(data, path):
        path.write_bytes(data)
        return read(path)

    return run


READERS = {
    "instance-csv": (INSTANCE_CSV, 3000, _read_file(read_instance_csv)),
    "config": (CONFIG, 600, _read_file(parse_config_file)),
    "events": (
        EVENTS,
        3000,
        _read_file(
            lambda path: ingest_snap_events(path, slots_per_day=10, band=(1, 50), max_slack=3)
        ),
    ),
    "generator-spec": (
        SPECS,
        1500,
        lambda data, path: parse_generator_spec(
            data.decode("latin-1"), seed=1 if b"seed" not in data else None
        ),
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_raise_only_value_or_os_errors(tmp_path, reader):
    seeds, count, read = READERS[reader]
    rng = random.Random(f"{SEED}-{reader}")
    seeds = seeds if isinstance(seeds, tuple) else (seeds,)
    path = tmp_path / "input"
    outcomes = {"read": 0, "typed": 0}
    escaped = []
    for seed in seeds:
        for data in _mutants(rng, seed, count // len(seeds)):
            try:
                read(data, path)
            except (ValueError, OSError):
                outcomes["typed"] += 1
            except Exception as exc:  # anything else is an escape
                escaped.append((data, repr(exc)))
            else:
                outcomes["read"] += 1
    assert escaped == []
    # The mutants reach both ends: inputs that still read, and typed faults.
    assert outcomes["read"] > 10 and outcomes["typed"] > 10, outcomes
