"""Semi-synchronous execution loop, traces, replay and trial seeding.

Discrete instants: a scheduler activates a non-empty subset of robots, each
active robot observes the pre-step configuration (so evaluation order
inside an instant cannot matter), decides a local target, and moves toward
it by at most its sigma. Inactive robots keep their exact position.

Every robot that observes through the identity frame (its own, or the
shared one under localization knowledge) sees the same points, so an
instant builds that view once and hands each such robot a copy that
differs only in its own position; robots with a private frame get a view
of their own. A protocol with a ``from_points`` body (plain scatter)
decides for identity-frame robots from their positions instead: while the
configuration has at most ``SMALL_CELL`` distinct points, an instant builds
no view and hands the body the first object of each distinct position, as
``build_view`` keeps them, in configuration order (the draw takes an exact
minimum and an ``all``, so the order of the points cannot matter); beyond
that the body gets the one view's ``within_reach``, as ``scatter_step``
does.

Co-located identity-frame robots decide once, and so does a robot whose
configuration no robot changed. Two such robots on the same position
object see the same view, and a rule is pure and draws only through its
source (the :class:`Protocol` contract), so a decision that drew nothing
is a function of the view and sigma alone. The target of each such
decision is kept under (id of the position object, sigma); a later active
robot on that object with that sigma takes it with no coins, and no view
is built and no rule called for it. An instant in which every active
robot keeps its position object hands back the configuration object it
was given, and :func:`run` keeps the table from one instant to the next
until the configuration is another object, so a swarm that has gathered
and stays decides once per position object for as long as it stays. Keys
are object identities, never point equality, so ``(0.0, y)`` and
``(-0.0, y)`` never share a decision and no bit of a target can change. A
decision that drew (every scatter coin) and a private frame's decision
are never reused. :func:`step`, :func:`replay`'s comparison and the
campaigns that call ``_advance`` keep no table between calls.

Randomness discipline: one root generator seeded from the scenario. Per
instant the scheduler draws first, then active robots consume draws in
ascending ordinal order (each robot: its coin, then any sampling draws).
That ordering is what makes replay bit-exact.

Robots draw through :class:`RecordingSource`, which calls the generator's
bit generator directly: a coin is ``next_uint32 >> 31`` and a uniform is
``low + (high - low) * next_double``, the draws numpy's
``integers(0, 2)`` and ``uniform`` make. This rests on those two numpy
algorithms staying as they are; ``tests/test_random_source.py`` checks
the mapping against numpy itself and the golden traces pin its output.

Campaigns of many short trials seed trial ``t`` as
``np.random.default_rng([seed, t])`` would, without building it:
:func:`trial_sources` runs numpy's ``SeedSequence`` mixing for a block of
trials at once and sets each trial's PCG64 state on one reused generator
and source. This rests on numpy's ``SeedSequence`` and PCG64 seeding
staying as they are; ``tests/test_trial_sources.py`` checks every state
against numpy itself.

An error of the package raised while an active robot decides or moves
is raised again by :func:`run` and :func:`step` as the same class, with
the instant (in ``run``), the robot's ordinal and its global position
added to its message, the original chained as its cause.

:class:`Scenario` and its JSON form live in :mod:`.scenario_text`; this
module re-exports their names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DigestMismatchError,
    ScatterSimError,
    ScenarioValidationError,
    TraceFormatError,
)
from .geometry import Point, distance
from .protocols import Protocol
from .scenario_text import STOP_RULES, Scenario, scenario_digest, scenario_from_dict, scenario_to_dict
from .world import (
    Capabilities,
    Configuration,
    IDENTITY_FRAME,
    SMALL_CELL,
    Robot,
    all_distinct,
    as_point,
    build_view,
    to_global,
)

TRACE_FORMAT = "scattersim-trace"
TRACE_VERSION = 1


def _f17(x: float) -> str:
    """Decimal rendering with 17 significant digits (bit-faithful)."""
    return format(float(x), ".17g")


class RecordingSource:
    """Wraps a numpy Generator for protocol use.

    Integer draws are the protocol coins and are logged per robot so the
    trace can record them; the total draw count lets harnesses verify that
    a rule is coin-free.

    Draws go straight to the generator's bit generator, which skips
    numpy's per-call argument handling but keeps its algorithms: the fair
    coin ``integers(0, 2)`` is Lemire's bounded draw on one 32-bit word,
    ``next_uint32 >> 31``, and ``uniform(low, high)`` is
    ``low + (high - low) * next_double``. Nothing is buffered here, so the
    generator is always in the state numpy's own calls would leave it in.
    """

    def __init__(self, generator):
        if not isinstance(generator, np.random.Generator):
            raise TypeError(
                f"RecordingSource needs a numpy.random.Generator, not {type(generator).__name__}"
            )
        self._g = generator
        bits = generator.bit_generator.ctypes
        self._state = bits.state
        self._next_uint32 = bits.next_uint32
        self._next_double = bits.next_double
        self.total_draws = 0
        self._coins: list[int] = []

    def integers(self, low: int, high: int) -> int:
        """The fair coin: ``integers(0, 2)`` is the only range served."""
        if low != 0 or high != 2:
            raise ValueError(f"only the fair coin integers(0, 2) is drawn, not ({low}, {high})")
        self.total_draws += 1
        value = self._next_uint32(self._state) >> 31
        self._coins.append(value)
        return value

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        span = high - low
        if not 0.0 <= span < math.inf:  # numpy's argument checks, in its order
            if math.isfinite(span):
                raise ValueError("high - low < 0")
            raise OverflowError("high - low range exceeds valid bounds")
        self.total_draws += 1
        return low + span * self._next_double(self._state)

    def begin_robot(self) -> None:
        self._coins = []

    def coins(self) -> tuple[int, ...]:
        return tuple(self._coins)


# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
TRIAL_BLOCK = 256  # trials seeded per batch: 1,024 ran no faster and held 4x the memory
MAX_TRIALS = 2**32  # a trial index must fit the one entropy word the kernel mixes


def _seed_state_words(seed_words: list[int], trials: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([seed, trial]).generate_state(4, np.uint64)`` for a
    block of trials, as its eight little-endian uint32 words (one array of
    the block per word). ``seed_words`` are the seed's uint32 words, low
    first; every trial is one word."""
    entropy = [np.full(len(trials), w, np.uint32) for w in seed_words] + [trials]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(len(trials), np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> 16))
    return words


def trial_sources(seed: int, trials: int):
    """Yield ``(generator, source)`` for trial 0, 1, ..., ``trials - 1``,
    the generator in exactly the state ``np.random.default_rng([seed,
    trial])`` starts in and ``source`` its :class:`RecordingSource` with no
    draws counted.

    The same two objects are yielded for every trial, so each pair is
    valid until the next one is drawn; the source's ``ctypes`` pointers
    are read once. Per block of :data:`TRIAL_BLOCK` trials, numpy's
    ``SeedSequence`` mixing runs on uint32 arrays; PCG64's seeding,
    ``inc = initseq << 1 | 1`` and ``state = ((inc + initstate) * M + inc)
    mod 2**128``, runs on Python ints; the result is assigned to the bit
    generator. This rests on numpy's ``SeedSequence`` and PCG64 seeding
    staying as they are; ``tests/test_trial_sources.py`` checks every
    state against numpy's own.

    A negative seed is a ``ValueError`` and a non-integer one (a bool
    too) a ``TypeError``, as in numpy; ``trials`` outside [0, 2**32) is a
    ``ValueError``. Each is raised here, before any trial is drawn.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}")
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if not 0 <= trials < MAX_TRIALS:
        raise ValueError(f"trials must be from 0 to below 2**32 = {MAX_TRIALS}, got {trials}")
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    return _seeded_trials(seed_words, trials)


def _seeded_trials(seed_words: list[int], trials: int):
    g = np.random.Generator(np.random.PCG64(0))
    bits = g.bit_generator
    src = RecordingSource(g)
    for start in range(0, trials, TRIAL_BLOCK):
        block = np.arange(start, min(start + TRIAL_BLOCK, trials), dtype=np.uint32)
        words = np.stack(_seed_state_words(seed_words, block), axis=1)
        # generate_state's own uint64 view; per trial, initstate is the
        # first two words and initseq the last two, high 64 bits first.
        rows = words.astype("<u4", copy=False).view("<u8").tolist()
        for state_hi, state_lo, seq_hi, seq_lo in rows:
            inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
            state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
            bits.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            src.total_draws = 0
            src.begin_robot()
            yield g, src


@dataclass(frozen=True)
class StepOutcome:
    """Per-instant activity: how many robots were activated and how many
    actually changed position."""

    activated_count: int
    moved_count: int


@dataclass(frozen=True)
class StepRecord:
    t: int
    active: tuple[int, ...]
    coins: tuple[tuple[int, ...], ...]  # aligned with active
    targets: tuple[Point, ...]  # intended global targets, before the sigma cap
    config: Configuration  # resulting configuration (instant t + 1)


@dataclass(frozen=True)
class Trace:
    """Deterministically replayable record of one run. Its initial
    configuration and robot count are its scenario's."""

    scenario: Scenario
    records: tuple[StepRecord, ...]
    status: str

    @property
    def initial(self) -> Configuration:
        return self.scenario.initial

    @property
    def n(self) -> int:
        return self.scenario.n

    def configs(self):
        """Configurations at instants 0, 1, ..., len(records)."""
        yield self.initial
        for rec in self.records:
            yield rec.config


def _located(exc: ScatterSimError, t: int | None, i: int, position) -> ScatterSimError:
    """``exc`` again, same class and attributes, its message followed by
    where it arose: the instant (when known), the robot and its global
    position."""
    where = f"robot {i} at ({float(position[0])!r}, {float(position[1])!r})"
    if t is not None:
        where = f"instant {t}, {where}"
    located = type(exc).__new__(type(exc))  # no __init__: subclasses take other arguments
    located.__dict__.update(exc.__dict__)
    located.args = (f"{exc} ({where})",)
    return located


def _advance(
    config: Configuration,
    activation,
    robots: tuple[Robot, ...],
    protocol: Protocol,
    caps: Capabilities,
    src: RecordingSource,
    t: int | None = None,
    settled: dict | None = None,
):
    """One instant from ``config``: the new configuration (``config``
    itself when every active robot kept its position object), the
    :class:`StepOutcome`, the sorted active ordinals, their coins and their
    targets.

    ``settled`` maps (id of a position object, sigma) to the target of an
    identity-frame decision that drew nothing; the config keeps every key's
    object alive. It is read and filled here, and a caller may hand the same
    table to the next instant while the configuration stays the same object."""
    active = tuple(sorted(activation))
    if not active:
        raise ScenarioValidationError("activation set must be non-empty")
    positions = list(config)
    coins_by = {}
    targets_by = {}
    moved = 0
    changed = False  # whether some active robot's position is another object
    shared = None  # the one view that every identity-frame robot observes
    body = protocol.from_points
    # The first object of each distinct position, as ``build_view`` keeps it.
    distinct = None if body is None else tuple(dict.fromkeys(config))
    if settled is None:
        settled = {}

    def within_reach(position, robot):
        """What ``View.within_reach`` hands the draw of an identity-frame
        robot at ``position``; a view is built only beyond ``SMALL_CELL``."""
        nonlocal shared
        if len(distinct) <= SMALL_CELL:
            return distinct
        if shared is None:
            shared = build_view(config, robot, caps)
        return shared.seen_from(position).within_reach(robot.sigma)

    for i in active:
        try:
            robot = robots[i]
            frame = IDENTITY_FRAME if caps.localization_knowledge else robot.frame
            identity = frame.is_identity
            target = settled.get((id(config[i]), robot.sigma)) if settled and identity else None
            if target is not None:  # the same view and sigma: the same decision, no draw
                coins_by[i] = ()
            elif identity and body is not None:  # a decision from positions alone
                position = as_point(config[i])
                src.begin_robot()
                target = as_point(body(position, lambda: within_reach(position, robot), robot.sigma, src))
                coins_by[i] = src.coins()
            else:
                if not identity:
                    view = build_view(config, robot, caps)
                elif shared is None:
                    view = shared = build_view(config, robot, caps)
                else:
                    view = shared.seen_from(as_point(config[robot.index]))
                src.begin_robot()
                draws = src.total_draws
                local_target = protocol.decide(view, caps, robot.sigma, src)
                coins_by[i] = src.coins()
                if identity:  # the identity frame's to_global would only copy the point
                    target = as_point(local_target)
                    if src.total_draws == draws:
                        settled[id(config[i]), robot.sigma] = target
                elif local_target == view.self_pos:  # a stay stays, bit for bit
                    target = config[i]
                else:  # a jump onto an observed robot lands exactly on it
                    target = view.global_point(local_target)
                    if target is None:
                        target = to_global(frame, local_target)
            targets_by[i] = target
            cur = config[i]
            if target == cur:  # a stay: the target is the new position as it is
                new = target
            else:
                d = distance(cur, target)
                if d <= robot.sigma:
                    new = target
                else:
                    f = robot.sigma / d
                    new = Point(cur[0] + f * (target.x - cur[0]), cur[1] + f * (target.y - cur[1]))
                if new != cur:
                    moved += 1
            if new is not cur:
                changed = True
                positions[i] = new
        except ScatterSimError as exc:
            raise _located(exc, t, i, config[i]) from exc
    outcome = StepOutcome(activated_count=len(active), moved_count=moved)
    coins = tuple(coins_by[i] for i in active)
    targets = tuple(targets_by[i] for i in active)
    if changed or type(config) is not tuple:
        config = tuple(positions)
    return config, outcome, active, coins, targets


def step(
    config: Configuration,
    activation,
    robots: tuple[Robot, ...],
    protocol: Protocol,
    caps: Capabilities,
    rng,
) -> tuple[Configuration, StepOutcome]:
    """One computation step. All views read ``config``; each active robot
    moves to its target if within its sigma, else exactly sigma along the
    straight segment toward it. ``rng`` is a numpy Generator, or a
    :class:`RecordingSource`, which is used as it is."""
    src = rng if isinstance(rng, RecordingSource) else RecordingSource(rng)
    new_config, outcome, _, _, _ = _advance(config, activation, robots, protocol, caps, src)
    return new_config, outcome


def _stop_hit(stop_rule: str, config: Configuration, sorted_pattern) -> bool:
    if stop_rule == "no_multiplicity":
        return all_distinct(config)
    if stop_rule == "gathered":
        first = config[0]
        return all(p == first for p in config)
    if stop_rule == "pattern_reached":
        return sorted(config) == sorted_pattern
    return False


def run(scenario: Scenario) -> Trace:
    """Execute the scenario to its stop rule or step budget."""
    scenario.validate()
    n = scenario.n
    g = np.random.default_rng(scenario.seed)
    sched = scenario.scheduler.build()
    protocol = scenario.protocol.build()
    src = RecordingSource(g)
    sorted_pattern = sorted(scenario.protocol.pattern) if scenario.protocol.pattern else None
    config = scenario.initial
    records: list[StepRecord] = []
    status = "budget_exhausted"
    if _stop_hit(scenario.stop_rule, config, sorted_pattern):
        status = f"stopped:{scenario.stop_rule}"
    else:
        settled: dict = {}  # kept while no robot changes the configuration
        for t in range(scenario.max_steps):
            activation = sched.next_activation(n, g)
            new, _, active, coins, targets = _advance(
                config, activation, scenario.robots, protocol, scenario.caps, src, t, settled
            )
            if new is not config:
                settled.clear()
                config = new
            records.append(StepRecord(t, active, coins, targets, config))
            if _stop_hit(scenario.stop_rule, config, sorted_pattern):
                status = f"stopped:{scenario.stop_rule}"
                break
    return Trace(scenario, tuple(records), status)


@dataclass(frozen=True)
class ReplayVerdict:
    passed: bool
    first_divergence: int | None  # instant index, 0 = initial configuration
    message: str


# Each field a record holds, its name in a verdict, and whether it is a
# row of points, compared bit for bit.
_REPLAYED_FIELDS = (
    ("config", "configuration", True),
    ("active", "activation set", False),
    ("t", "instant counter", False),
    ("coins", "coin record", False),
    ("targets", "target record", True),
)


def _signs_differ(a, b) -> bool:
    """Whether the equal rows of points ``a`` and ``b`` differ in the sign
    of a zero, the one way equal finite doubles can differ in their bits."""
    return any(
        math.copysign(1, u) != math.copysign(1, v) for p, q in zip(a, b) for u, v in zip(p, q)
    )


def replay(trace: Trace) -> ReplayVerdict:
    """Re-execute the embedded scenario and compare every record field
    (configuration, activation set, ``t``, coins, targets) instant by
    instant, then the length and final status. Positions and targets are
    compared bit for bit, so a changed sign of a zero diverges. Both runs
    start from the scenario's initial configuration."""
    fresh = run(trace.scenario)
    for j, (a, b) in enumerate(zip(trace.records, fresh.records)):
        for field, name, points in _REPLAYED_FIELDS:
            x, y = getattr(a, field), getattr(b, field)
            # Only a row that holds a zero has its signs compared.
            if x != y or points and not all(chain.from_iterable(x)) and _signs_differ(x, y):
                return ReplayVerdict(False, j + 1, f"{name} diverges at instant {j + 1}")
    if len(fresh.records) != len(trace.records) or fresh.status != trace.status:
        k = min(len(fresh.records), len(trace.records)) + 1
        return ReplayVerdict(False, k, "trace length or final status differs")
    return ReplayVerdict(True, None, "identical")


def _pairs(points, before: dict, now: dict) -> str:
    """``points`` as a JSON array of ``[x,y]`` pairs. A point object that
    ``before`` or ``now`` holds (keyed by ``id``) reuses its text; every
    point's text goes into ``now``."""
    texts = []
    for p in points:
        key = id(p)
        text = now.get(key) or before.get(key)
        if text is None:
            text = f"[{_f17(p[0])},{_f17(p[1])}]"
        now[key] = text
        texts.append(text)
    return "[" + ",".join(texts) + "]"


def trace_header(scenario: Scenario) -> dict:
    """The header of every trace of ``scenario``."""
    return {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "digest": scenario_digest(scenario),
        "seed": scenario.seed,
        "n": scenario.n,
        "scenario": scenario_to_dict(scenario),
    }


def write_trace(trace: Trace, path) -> None:
    """Line-delimited trace: the JSON :func:`trace_header`, one JSON
    record per instant with floats rendered to 17 significant digits, and
    a status trailer.

    Each position or target is rendered the first time its ``Point``
    object is met. A record that holds an object of the record before (a
    robot that was inactive or stayed) or one met earlier in the same
    record (co-located robots, a target a robot reached) reuses its text.
    The texts are keyed by object identity, never by equality, since
    ``0.0 == -0.0``; the trace keeps every object alive while it is
    written. A record whose configuration is the record before's own
    object (no robot changed it, as :func:`run` keeps it) reuses that
    record's positions text whole. Only the last two records' texts are
    kept, and each line is written as it is made."""
    with open(path, "w", encoding="utf-8") as fh:
        header = trace_header(trace.scenario)
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        before: dict[int, str] = {}
        held = None  # the configuration that ``positions`` renders
        for rec in trace.records:
            if rec.config is not held:
                now: dict[int, str] = {}
                positions = _pairs(rec.config, before, now)
                held, held_texts = rec.config, dict(now)
            else:
                now = dict(held_texts)
            targets = _pairs(rec.targets, before, now)
            coins = "[" + ",".join("[" + ",".join(map(str, c)) + "]" for c in rec.coins) + "]"
            line = (
                f'{{"t":{rec.t},'
                f'"active":[{",".join(map(str, rec.active))}],'
                f'"coins":{coins},'
                f'"targets":{targets},'
                f'"positions":{positions}}}'
            )
            fh.write(line + "\n")
            before = now
        fh.write(json.dumps({"status": trace.status}) + "\n")


class _Parsed(dict):
    """JSON number texts and their values, each parsed once by ``parse``;
    ``-0``, how ``_f17`` renders the float ``-0.0``, loads as ``-0.0``."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, text):
        value = self[text] = -0.0 if text == "-0" else self.parse(text)
        return value


_INT, _NUMBER, _ARRAY = {int}, {int, float}, {list}
_PAIRS = "targets and positions must be arrays of [x, y] number pairs"


def _all_of(values, types: set) -> bool:
    """Whether the exact type of every item of ``values`` is in ``types``
    (a bool is an int, but its exact type is not)."""
    return set(map(type, values)) <= types


def _points(row: list, points: dict) -> tuple:
    """The ``Point`` of each pair of ``row``: the one ``points`` holds under
    the ids of the pair's two numbers (which :func:`load_trace`'s tables
    keep alive, so no id passes to another value), else a new one."""
    got = []
    for x, y in row:
        key = id(x), id(y)
        p = points.get(key)
        if p is None:
            if type(x) not in _NUMBER or type(y) not in _NUMBER:
                raise ValueError(_PAIRS)
            p = points[key] = Point(float(x), float(y))
        got.append(p)
    return tuple(got)


def _record(obj, points: dict) -> StepRecord:
    """The record in the decoded line ``obj``. Each field must have the
    JSON type that :func:`write_trace` writes, else ValueError: ``t`` an
    integer, ``active`` an array of integers, ``coins`` an array of integer
    arrays, ``targets`` and ``positions`` arrays of ``[x, y]`` number pairs."""
    t, active, coins = obj["t"], obj["active"], obj["coins"]
    targets, positions = obj["targets"], obj["positions"]
    if type(t) is not int:
        raise ValueError(f"t must be an integer, not {t!r}")
    if type(active) is not list or not _all_of(active, _INT):
        raise ValueError("active must be an array of integers")
    if type(coins) is not list or not _all_of(coins, _ARRAY) or not _all_of(chain(*coins), _INT):
        raise ValueError("coins must be an array of integer arrays")
    # _points checks the numbers of array pairs; any other pair yields
    # strings (an object's keys, a string's characters) or fails.
    rows = (targets, positions)
    if not _all_of(rows, _ARRAY) or (
        not _all_of(chain(*rows), _ARRAY) and not _all_of(chain(*targets, *positions), _NUMBER)
    ):
        raise ValueError(_PAIRS)
    return StepRecord(
        t=t,
        active=tuple(active),
        coins=tuple(map(tuple, coins)),
        targets=_points(targets, points),
        config=_points(positions, points),
    )


def _check_status(status, count: int, scenario: Scenario) -> None:
    """Refuse a trailer ``status`` that no :func:`run` of ``scenario``
    ends with after ``count`` records: ``budget_exhausted`` needs exactly
    ``max_steps`` records, ``stopped:<stop_rule>`` (a rule other than
    ``none``) at most that many."""
    budget, stopped = "budget_exhausted", f"stopped:{scenario.stop_rule}"
    if status == budget:
        fits, bound = count == scenario.max_steps, "exactly"
    elif status == stopped and scenario.stop_rule != "none":
        fits, bound = count <= scenario.max_steps, "at most"
    else:
        wanted = repr(budget) if scenario.stop_rule == "none" else f"{budget!r} or {stopped!r}"
        raise TraceFormatError(f"bad trailer: status {status!r}, expected {wanted}")
    if not fits:
        raise TraceFormatError(
            f"bad trailer: status {status!r} after {count} records, not {bound} max_steps = {scenario.max_steps}"
        )


def load_trace(path) -> Trace:
    """Read a trace that :func:`write_trace` wrote, checking its header,
    its trailer and each record (see README, Trace format); a malformed
    file raises :class:`TraceFormatError`, and one in a record names it.

    The header must be the :func:`trace_header` of its embedded scenario,
    compared as JSON text (``true``, ``1`` and ``1.0`` differ): a differing
    digest raises :class:`DigestMismatchError`, any other key a
    TraceFormatError that names it. The embedded scenario must then pass
    :meth:`Scenario.validate`, as :func:`run` requires; else its
    :class:`ScenarioValidationError` is raised as it is. The trailer's
    status must be one a run of that scenario ends with after the file's
    number of records (see :func:`_check_status`).

    Every coordinate keeps its bits, the sign of a zero included: a
    record's ``-0`` loads as ``-0.0``. Each number text is parsed once per
    call, and each pair of texts becomes one ``Point`` that every position
    and target holding it shares, in any record. :func:`write_trace` gives
    each double one text, so ``0`` and ``-0`` never share an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not UTF-8 text: {exc}") from exc
    if not lines:
        raise TraceFormatError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad header: {exc}") from exc
    if not isinstance(header, dict) or "digest" not in header:
        raise TraceFormatError("bad header: not an object with a digest")
    if header.get("format") != TRACE_FORMAT or header.get("version") != TRACE_VERSION:
        raise TraceFormatError("unrecognized trace format or version")
    try:
        scenario = scenario_from_dict(header["scenario"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad embedded scenario: {exc}") from exc
    got, want = (
        {k: json.dumps(v, sort_keys=True) for k, v in h.items()}
        for h in (header, trace_header(scenario))
    )
    if got["digest"] != want["digest"]:
        raise DigestMismatchError("trace digest does not match its embedded scenario")
    for key in sorted(got.keys() | want.keys()):
        if got.get(key) != want.get(key):
            raise TraceFormatError(f"bad header: {key!r} does not match the embedded scenario")
    scenario.validate()
    try:
        trailer = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad trailer: {exc}") from exc
    if not isinstance(trailer, dict) or "status" not in trailer:
        raise TraceFormatError("truncated trace: missing status trailer")
    n = scenario.n
    records = []
    floats, ints = _Parsed(float), _Parsed(int)
    decode = json.JSONDecoder(parse_float=floats.__getitem__, parse_int=ints.__getitem__).decode
    points: dict = {}
    for k, ln in enumerate(lines[1:-1]):
        try:
            rec = _record(decode(ln), points)
        except (KeyError, TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            raise TraceFormatError(f"record {k}: bad record line: {exc}") from exc
        if rec.t != k:
            raise TraceFormatError(f"record {k}: t = {rec.t}, expected {k}")
        if len(rec.config) != n:
            raise TraceFormatError(f"record {k}: {len(rec.config)} positions for {n} robots")
        if len(rec.coins) != len(rec.active) or len(rec.targets) != len(rec.active):
            raise TraceFormatError(f"record {k}: coins or targets not aligned with active")
        if any(not 0 <= i < n for i in rec.active):
            raise TraceFormatError(f"record {k}: active ordinal out of range 0..{n - 1}")
        records.append(rec)
    _check_status(trailer["status"], len(records), scenario)
    return Trace(scenario, tuple(records), trailer["status"])
