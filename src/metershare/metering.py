"""Meter-side simulation: scenario configs, readings, encoding, submission.

A scenario fixes the grid shape (regions, suppliers, meters per region)
and the protocol parameters; everything downstream is derived from its
seed, so two runs of the same scenario are byte-identical.  Encoding
happens on the meter, which is the only place plaintext readings exist;
the servers only ever see shares.
"""

from collections.abc import Iterable
from dataclasses import MISSING, dataclass, field as dfield, asdict
import hashlib
import json
import random
import struct

from . import field
from .abb import Engine
from .aggregation import STREAMS, MeterTuple, grid_view
from .errors import (
    IdOverflow,
    InvalidParams,
    ScenarioError,
    UnknownSupplier,
)
from .shamir import SharingParams, share_values

ALGORITHMS = ("naa", "ncaa", "niaa")
BYTE_ACCOUNTING = ("paper", "measured")

# Default draw ceilings for synthetic readings, in watt-hours per slot.
DEFAULT_IMP_LEVEL = 5000
DEFAULT_EXP_LEVEL = 3000

# Per-meter work that grows with N_s, refused before any meter is built:
# niaa's bundle, built whole on the meter, holds a reading-or-zero sharing
# per supplier and stream, and naa tests each of a meter's two IDs against
# every supplier, so both do 2 * N_s per meter.  The paper's N_s = 10 needs
# 20.
MAX_PER_METER = 1 << 12

# Region x supplier grid cells, refused the same way: every algorithm builds
# N_s cells per region and the grid, bundles and oracle hold all of them, so
# this bounds ncaa and grids of empty regions too.  The paper's is 14 x 10.
MAX_GRID_CELLS = 1 << 16

# synthetic draws read SHA-256 blocks as 64-bit words (see ``_draws``)
_WORD_RANGE = 1 << 64
_unpack_block = struct.Struct("<4Q").unpack


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from a path of labels."""
    text = "/".join(map(str, parts))
    return int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "little"
    )


def _is_int(value) -> bool:
    """A plain integer; bool is an int subclass but no count or index."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class Scenario:
    n_dno: int
    n_suppliers: int
    sm_per_region: list
    seed: int
    n_servers: int = 3
    threshold: int = 1
    sigma: int = 8
    fault_rate: float = 0.0
    algorithm: str = "naa"
    byte_accounting: str = "measured"
    fail_servers: list = dfield(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # types first: JSON hands over floats and booleans as readily as ints
        for name in ("n_dno", "n_suppliers", "seed", "n_servers",
                     "threshold", "sigma"):
            if not _is_int(getattr(self, name)):
                raise ScenarioError(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                )
        for name in ("sm_per_region", "fail_servers"):
            entries = getattr(self, name)
            if not isinstance(entries, (list, tuple)) \
                    or not all(_is_int(e) for e in entries):
                raise ScenarioError(
                    f"{name} must be a list of integers, got {entries!r}"
                )
        if isinstance(self.fault_rate, bool) \
                or not isinstance(self.fault_rate, (int, float)):
            raise ScenarioError(
                f"fault_rate must be a number, got {self.fault_rate!r}"
            )
        try:
            SharingParams(self.n_servers, self.threshold)
        except InvalidParams as err:
            raise ScenarioError(str(err)) from None
        if self.n_dno < 1 or self.n_suppliers < 1:
            raise ScenarioError("need at least one region and one supplier")
        if len(self.sm_per_region) != self.n_dno:
            raise ScenarioError(
                f"sm_per_region lists {len(self.sm_per_region)} regions, "
                f"n_dno says {self.n_dno}"
            )
        if any(m < 0 for m in self.sm_per_region):
            raise ScenarioError("meter counts must be non-negative")
        if self.sigma < 1:
            raise ScenarioError("supplier IDs need at least one bit")
        # ncaa packs an ID's bits into one field element (compose_bits_batch):
        # only below the prime's width is that packing injective
        if self.sigma >= field.PRIME.bit_length():
            raise ScenarioError(f"sigma must be below "
                                f"{field.PRIME.bit_length()}, got {self.sigma}")
        if self.n_suppliers.bit_length() > self.sigma:
            raise ScenarioError(
                f"{self.n_suppliers} suppliers do not fit {self.sigma} bits"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ScenarioError("fault_rate must be within [0, 1]")
        if self.algorithm not in ALGORITHMS:
            raise ScenarioError(f"unknown algorithm {self.algorithm!r}")
        if self.byte_accounting not in BYTE_ACCOUNTING:
            raise ScenarioError(
                f"unknown byte accounting {self.byte_accounting!r}"
            )
        bad = [s for s in self.fail_servers
               if not 1 <= s <= self.n_servers]
        if bad:
            raise ScenarioError(f"no such servers: {bad}")
        alive = self.n_servers - len(set(self.fail_servers))
        if alive < self.threshold + 1:
            raise ScenarioError(
                "failing that many servers leaves fewer than t+1 alive"
            )
        # worst-case grid total must stay clear of the field modulus
        total = sum(self.sm_per_region)
        if total * ((1 << field.READING_BITS) - 1) >= field.PRIME:
            raise ScenarioError(
                "total meter population could overflow the field"
            )
        if self.algorithm in ("naa", "ncaa") and alive < 2 * self.threshold + 1:
            raise ScenarioError(f"{self.algorithm} multiplies and needs 2t+1 "
                                f"live servers, {alive} remain")
        work = {"niaa": "one-hot sharings",
                "naa": "equality tests"}.get(self.algorithm)
        if work and 2 * self.n_suppliers > MAX_PER_METER:
            raise ScenarioError(
                f"{self.algorithm} needs {2 * self.n_suppliers} {work} per "
                f"meter for {self.n_suppliers} suppliers, above the "
                f"per-meter limit of {MAX_PER_METER}"
            )
        cells = self.n_dno * self.n_suppliers
        if cells > MAX_GRID_CELLS:
            raise ScenarioError(f"n_dno x n_suppliers is {cells} grid cells, "
                                f"above the grid limit of {MAX_GRID_CELLS}")

    @property
    def params(self) -> SharingParams:
        return SharingParams(self.n_servers, self.threshold)

    @property
    def suppliers(self) -> list[int]:
        return list(range(1, self.n_suppliers + 1))

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        known = cls.__dataclass_fields__
        extra = set(data) - set(known)
        if extra:
            raise ScenarioError(f"unknown scenario keys: {sorted(extra)}")
        missing = [name for name, f in known.items() if name not in data
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ScenarioError(f"missing scenario keys: {missing}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ScenarioError(f"cannot load scenario {path}: {e}") from None
        if not isinstance(data, dict):
            raise ScenarioError("scenario file must hold a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SmartMeter:
    sm_id: int
    region: int
    supplier_imp: int
    supplier_exp: int

    @property
    def suppliers(self) -> tuple:
        """The supplier of each stream, in ``STREAMS`` order."""
        return (self.supplier_imp, self.supplier_exp)


def _block(text: str) -> tuple:
    """The SHA-256 digest of ``text`` as four 64-bit little-endian words."""
    return _unpack_block(hashlib.sha256(text.encode()).digest())


def _draws(text: str, ns: tuple) -> tuple:
    """One draw in [0, n) for each n of ``ns``, read from ``text``'s block.

    A draw takes the next word w and gives ``w % n``, accepted only when
    ``w < 2**64 - 2**64 % n``, so every value is exactly as likely; a
    rejected word is skipped.  Past the block's last word the blocks of
    ``text#1``, ``text#2``, ... follow.  The draws depend on ``text`` and
    ``ns`` only: no generator is seeded and none carries state.
    """
    words = _block(text)
    out = []
    i = 0
    for n in ns:
        limit = _WORD_RANGE - _WORD_RANGE % n
        while True:
            if i == len(words):
                words += _block(f"{text}#{i // 4}")
            w = words[i]
            i += 1
            if w < limit:
                break
        out.append(w % n)
    return tuple(out)


def build_meters(scenario: Scenario) -> list[SmartMeter]:
    """Deterministic meter population, numbered from 1 region by region.

    Meter i's import and export suppliers are the two draws in
    [1, n_suppliers] of the block of ``seed/meter/i`` (see ``_draws``), so
    they depend on the seed and i only.
    """
    meters = []
    ns = (scenario.n_suppliers,) * 2
    prefix = f"{scenario.seed}/meter/"
    first = 1
    for region, count in enumerate(scenario.sm_per_region, start=1):
        for sm_id in range(first, first + count):
            imp, exp = _draws(f"{prefix}{sm_id}", ns)
            meters.append(SmartMeter(sm_id, region, imp + 1, exp + 1))
        first += count
    return meters


def generate_readings(scenario: Scenario, meters: list[SmartMeter],
                      slot: int = 0) -> dict:
    """Per-slot readings: meter i's (import, export) in a slot are the two
    draws in [0, DEFAULT_IMP_LEVEL] and [0, DEFAULT_EXP_LEVEL] of the block
    of ``seed/reading/slot/i`` (see ``_draws``)."""
    levels = (DEFAULT_IMP_LEVEL + 1, DEFAULT_EXP_LEVEL + 1)
    prefix = f"{scenario.seed}/reading/{slot}/"
    return {m.sm_id: _draws(f"{prefix}{m.sm_id}", levels) for m in meters}


def _check_supplier(meter: SmartMeter, supplier: int, scenario: Scenario) -> None:
    if supplier >> scenario.sigma:
        raise IdOverflow(
            f"supplier {supplier} of meter {meter.sm_id} exceeds "
            f"{scenario.sigma} bits"
        )
    if not 1 <= supplier <= scenario.n_suppliers:
        raise UnknownSupplier(
            f"meter {meter.sm_id} references supplier {supplier}"
        )


def encode_bitwise(meter: SmartMeter, imp: int, exp: int, scenario: Scenario,
                   rng: random.Random) -> MeterTuple:
    """Share the two supplier IDs bit by bit plus the two readings.

    2*sigma + 2 sharings per meter; the bit decomposition is what makes
    the secret equality tests affordable.
    """
    n, t = scenario.n_servers, scenario.threshold
    shifts = range(scenario.sigma - 1, -1, -1)
    fields = []
    for supplier in meter.suppliers:
        _check_supplier(meter, supplier, scenario)
        fields.append(tuple([share_values(supplier >> k & 1, n, t, rng)
                             for k in shifts]))
    readings = tuple([share_values(field.encode_reading(r), n, t, rng)
                      for r in (imp, exp)])
    return MeterTuple(sm=meter.sm_id, fields=tuple(fields), readings=readings)


def encode_onehot(meter: SmartMeter, imp: int, exp: int, scenario: Scenario,
                  rng: random.Random) -> MeterTuple:
    """Share one reading-or-zero entry per supplier: 2*N_s sharings."""
    n, t = scenario.n_servers, scenario.threshold
    fields = []
    for supplier, reading in zip(meter.suppliers, (imp, exp)):
        _check_supplier(meter, supplier, scenario)
        entries = [0] * scenario.n_suppliers
        entries[supplier - 1] = field.encode_reading(reading)
        fields.append(tuple([share_values(v, n, t, rng) for v in entries]))
    return MeterTuple(sm=meter.sm_id, fields=tuple(fields), readings=())


def encode(meter: SmartMeter, imp: int, exp: int, scenario: Scenario,
           rng: random.Random) -> MeterTuple:
    if scenario.algorithm == "niaa":
        return encode_onehot(meter, imp, exp, scenario, rng)
    return encode_bitwise(meter, imp, exp, scenario, rng)


@dataclass
class SubmitReport:
    included: list
    excluded: list
    delivered_bundles: int = 0
    delivered_shares: int = 0


def submit(engine: Engine, scenario: Scenario,
           encoded: Iterable[MeterTuple],
           fault_rng: random.Random) -> tuple[list, SubmitReport]:
    """Deliver encoded tuples into the region engine, dropping faulty legs.

    ``encoded`` is read once, in order, and each bundle is delivered before
    the next is taken, so a generator keeps one meter's bundle in memory.

    A transit fault loses a meter's whole bundle to one server.  Meters
    are only admitted when enough servers hold their shares for the
    chosen algorithm to finish: the equality-test and permutation
    algorithms multiply, so they need a common 2t+1 quorum per meter,
    while pure addition survives on any t+1.  Rejected meters are listed
    in the report and take no part in aggregation or its oracle.

    An admitted meter's sharings all reach the same servers, so every
    handle of a returned ``MeterTuple`` has one holder mask, the servers
    that received its bundle; ``niaa_region`` groups meters by it.
    """
    n, t = scenario.n_servers, scenario.threshold
    dead = set(scenario.fail_servers)
    alive = [s for s in range(1, n + 1) if s not in dead]
    # Live holders a meter needs, as received is a subset of alive.  naa's
    # equality circuits only ever mix shares of the same meter, so any 2t+1
    # form a workable quorum; ncaa's permutation mixes every row with every
    # other, so each row must live on every live server; niaa adds only.
    need = {"naa": 2 * t + 1, "ncaa": len(alive),
            "niaa": t + 1}[scenario.algorithm]
    pc = engine.meter.bucket(engine.current_phase)
    report = SubmitReport(included=[], excluded=[])
    tuples = []
    rate = scenario.fault_rate
    input_shares = engine.input_shares
    for rec in encoded:
        received = [
            s for s in alive if not fault_rng.random() < rate
        ] if rate else alive
        sharings = sum(map(len, rec.fields)) + len(rec.readings)
        report.delivered_bundles += len(received)
        report.delivered_shares += len(received) * sharings
        if len(received) < need:
            # traffic still happened; the servers just cannot use it
            report.excluded.append(rec.sm)
            pc.msgs_sm_to_dcc += len(received) * sharings
            continue
        report.included.append(rec.sm)
        sender = f"sm{rec.sm}"
        holders = sum(1 << (s - 1) for s in received)
        # sharings register in draw order: the fields, then the readings
        groups = [tuple([input_shares(values, sender, holders)
                         for values in group])
                  for group in (*rec.fields, rec.readings)]
        tuples.append(MeterTuple(rec.sm, tuple(groups[:-1]), groups[-1]))
    return tuples, report


def plaintext_totals(meters: list[SmartMeter], readings: dict,
                     included: set, n_dno: int, n_suppliers: int) -> dict:
    """Group-by oracle over the plaintext readings of admitted meters."""
    matrices = [[[0] * n_suppliers for _ in range(n_dno)] for _ in STREAMS]
    admitted = [m for m in meters if m.sm_id in included]
    for s, matrix in enumerate(matrices):
        for m in admitted:
            matrix[m.region - 1][m.suppliers[s] - 1] += readings[m.sm_id][s]
    return grid_view(matrices)
