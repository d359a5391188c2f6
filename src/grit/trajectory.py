"""Trajectory ingestion and preprocessing into labelled training samples.

An episode is one recording: several agents observed on a common frame grid.
Preprocessing assigns each vehicle its ground-truth goal (the first goal
radius the trajectory enters), trims the trajectory at that frame, and takes
eleven samples at observation fractions 0.0 to 1.0 in steps of 0.1.

The bulk producers (CSV loading, derived kinematics, synthesis, unpickling)
build states column by column: one ``object.__new__`` map allocates them all
and one map of each field's slot setter fills that field, so no Python
function runs per state. CSV loading parses each numeric column with one
``map(float, ...)`` when the file is plain (no quote character, one field per
header column on every line, each agent's rows in one run) and otherwise,
or on any fault, falls back to a row loop over ``csv.reader`` that names the
offending line.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import groupby, repeat
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import TrajectoryError
from .features import FeatureVector, extract_all
from .geometry import wrap_heading
from .scenario import (
    GoalSpec,
    GoalType,
    Scenario,
    assign_goal_type,
    reachable_goals,
)

FRACTION_GRID: Tuple[float, ...] = tuple(k / 10.0 for k in range(11))

_TIME_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class AgentState:
    """One observed frame of one agent. Heading is wrapped to (-pi, pi].

    The public constructor validates: every field must be finite and speed
    non-negative, else TrajectoryError, and the heading is wrapped. The bulk
    producers (CSV loading, derived kinematics, synthesis) check whole columns
    once with the same rules and messages (:func:`_check_columns`) and wrap
    only the headings outside (-pi, pi]. They and unpickling build states
    with :func:`_build_states`, which trusts its values and fills each slot
    column by column without calling this class.
    """

    time: float
    x: float
    y: float
    heading: float
    speed: float
    acceleration: float

    def __post_init__(self):
        for name in ("time", "x", "y", "heading", "speed", "acceleration"):
            if not math.isfinite(getattr(self, name)):
                raise TrajectoryError(f"non-finite {name} in agent state")
        if self.speed < 0.0:
            raise TrajectoryError("negative speed in agent state")
        object.__setattr__(self, "heading", wrap_heading(self.heading))

    # a pickled state was valid when it was dumped
    def __reduce__(self):
        return _trusted_state, (
            self.time, self.x, self.y, self.heading, self.speed, self.acceleration
        )


_FIELDS = ("time", "x", "y", "heading", "speed", "acceleration")

# the slot descriptors' setters: about twice as fast as object.__setattr__
_SETTERS = tuple(getattr(AgentState, name).__set__ for name in _FIELDS)


def _build_states(
    time: Sequence[float],
    x: Sequence[float],
    y: Sequence[float],
    heading: Sequence[float],
    speed: Sequence[float],
    acceleration: Sequence[float],
) -> List[AgentState]:
    """AgentStates over columns of values that already pass its checks, with
    headings in (-pi, pi]: one map allocates the states and one map per field
    fills its slot, so no Python function runs per state."""
    states = list(map(object.__new__, repeat(AgentState, len(time))))
    for setter, column in zip(_SETTERS, (time, x, y, heading, speed, acceleration)):
        # consume the map for its side effect without storing its results
        deque(map(setter, states, column), maxlen=0)
    return states


def _trusted_state(
    time: float,
    x: float,
    y: float,
    heading: float,
    speed: float,
    acceleration: float,
) -> AgentState:
    """AgentState from values that already pass its checks, heading wrapped."""
    return _build_states((time,), (x,), (y,), (heading,), (speed,), (acceleration,))[0]


def _check_columns(columns: np.ndarray, lines: Optional[np.ndarray] = None) -> None:
    """Raise AgentState's own TrajectoryError for the first row it would
    reject, naming that row's CSV line when lines are given.

    columns is a (6, n) float array in field order.
    """
    finite = np.isfinite(columns)
    bad = ~finite.all(axis=0) | (columns[4] < 0.0)
    if not bad.any():
        return
    row = int(bad.argmax())
    names = [name for name, ok in zip(_FIELDS, finite[:, row]) if not ok]
    message = f"non-finite {names[0]}" if names else "negative speed"
    where = "" if lines is None else f" at line {int(lines[row])}"
    raise TrajectoryError(f"{message} in agent state{where}")


def _states(columns: Sequence[List[float]]) -> List[AgentState]:
    """AgentStates from six float columns in field order whose values pass
    AgentState's checks (:func:`_check_columns`).

    wrap_heading runs only on headings outside (-pi, pi]: on that range
    math.remainder is exact, so it would return its input bit for bit.
    """
    t, x, y, h, v, a = columns
    if h and not (-math.pi < min(h) and max(h) <= math.pi):
        h = [w if -math.pi < w <= math.pi else wrap_heading(w) for w in h]
    return _build_states(t, x, y, h, v, a)


def states_from_columns(columns: Sequence[Sequence[float]]) -> List[AgentState]:
    """AgentStates from time, x, y, heading, speed and acceleration columns.

    Equal to building each state with the public constructor, which would
    raise the same TrajectoryError for the first bad row, but checked once
    per column.
    """
    columns = np.array(columns, dtype=float)
    _check_columns(columns)
    return _states(columns.tolist())


def _check_frame_rate(frame_rate: float) -> None:
    if not (math.isfinite(frame_rate) and frame_rate > 0):
        raise TrajectoryError("frame rate must be positive")


class Episode:
    """Recording of one or more agents on a shared frame grid."""

    def __init__(self, frame_rate: float, trajectories: Mapping[str, Sequence[AgentState]]):
        _check_frame_rate(frame_rate)
        self.frame_rate = float(frame_rate)
        self.trajectories: Dict[str, Tuple[AgentState, ...]] = {}
        dt = 1.0 / frame_rate
        self._times: Dict[str, List[float]] = {}
        for agent_id in trajectories:
            states = tuple(trajectories[agent_id])
            if not states:
                raise TrajectoryError(f"agent '{agent_id}' has no states")
            times = [s.time for s in states]
            _check_frame_times(agent_id, times, dt)
            self.trajectories[agent_id] = states
            self._times[agent_id] = times

    @classmethod
    def _from_validated(
        cls,
        frame_rate: float,
        trajectories: Dict[str, Tuple[AgentState, ...]],
        times: Dict[str, List[float]],
    ) -> "Episode":
        """Episode over already validated trajectories and their frame times."""
        episode = cls.__new__(cls)
        episode.frame_rate = frame_rate
        episode.trajectories = trajectories
        episode._times = times
        return episode

    # pickled as six float lists per agent rather than one object per state
    def __reduce__(self):
        columns = {
            agent_id: [[getattr(s, name) for s in states] for name in _FIELDS]
            for agent_id, states in self.trajectories.items()
        }
        return _episode_from_columns, (self.frame_rate, columns)

    def agent_ids(self) -> List[str]:
        return sorted(self.trajectories)

    def state_at(self, agent_id: str, time: float) -> Optional[AgentState]:
        """State of an agent at a frame time, or None if not observed then."""
        times = self._times.get(agent_id)
        if not times:
            return None
        i = bisect_left(times, time - _TIME_TOL)
        if i < len(times) and abs(times[i] - time) <= _TIME_TOL:
            return self.trajectories[agent_id][i]
        return None


def _check_frame_times(agent_id: str, times: Sequence[float], dt: float) -> None:
    """Raise TrajectoryError unless times step forward by dt within _TIME_TOL."""
    gaps = np.diff(times)
    bad = (gaps <= 0.0) | (np.abs(gaps - dt) > _TIME_TOL)
    if bad.any():
        gap = float(gaps[bad.argmax()])
        if gap <= 0.0:
            raise TrajectoryError(f"agent '{agent_id}' has out-of-order timestamps")
        raise TrajectoryError(
            f"agent '{agent_id}' frame gap {gap:.6f} does not match "
            f"1/frame_rate = {dt:.6f}"
        )


def _episode_from_columns(
    frame_rate: float, columns: Dict[str, List[List[float]]]
) -> Episode:
    """Unpickled :class:`Episode`: its states were valid when it was dumped."""
    return Episode._from_validated(
        frame_rate,
        {agent: tuple(_build_states(*cols)) for agent, cols in columns.items()},
        {agent: cols[0] for agent, cols in columns.items()},
    )


# -- CSV format --------------------------------------------------------------

_REQUIRED_COLUMNS = ("time", "agent_id", "x", "y", "heading")
_OPTIONAL_COLUMNS = ("speed", "acceleration")


def load_trajectories(path: str | Path, frame_rate: float) -> Episode:
    """Load one episode from CSV.

    Columns: time, agent_id, x, y, heading plus optional speed and
    acceleration. When the optional columns are absent, both are derived
    from positions. Rows of one agent must already be in time order. A row
    that AgentState would reject is reported with its line number.
    """
    _check_frame_rate(frame_rate)
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise TrajectoryError(f"cannot read trajectory file: {exc}") from exc
    # with neither a quote nor a NUL (which csv.reader rejects before Python
    # 3.11), csv.reader splits each line at every comma and nowhere else
    plain = '"' not in text and "\0" not in text
    # split where csv.reader does: read_text made every "\r\n" and "\r" a "\n"
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    del text
    episode = _load_columns(lines, frame_rate) if plain else None
    if episode is not None:
        return episode
    try:
        return _load_rows(lines, frame_rate)
    except csv.Error as exc:  # such as a field beyond csv.field_size_limit()
        raise TrajectoryError(f"malformed CSV: {exc}") from exc


def _load_columns(lines: List[str], frame_rate: float) -> Optional[Episode]:
    """The episode :func:`_load_rows` loads from lines holding no quote or
    NUL, parsed one column at a time; None wherever that equality is not shown.

    It takes only files whose every line after the header has one field per
    header column, with both optional columns present, and whose agents'
    rows each form one run, as save_trajectories writes them. Any fault
    (a bad float, an empty or repeated agent id, a rejected state, a frame
    gap) also gives None, so the row loop reports it with its line.
    """
    if len(lines) < 2:
        return None
    header = [h.strip() for h in lines[0].split(",")]
    if not all(col in header for col in _REQUIRED_COLUMNS + _OPTIONAL_COLUMNS):
        return None
    # csv.reader refuses a field longer than its limit; no line here is
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    # No line holds a newline, so the n - 1 "\n" fields are the separators.
    # Where each sits right after `width` fields, every line has `width`.
    width, step, n = len(header), len(header) + 1, len(lines) - 1
    fields = ",\n,".join(lines[1:]).split(",")
    if len(fields) != n * step - 1 or fields[width::step].count("\n") != n - 1:
        return None
    agents = list(map(str.strip, fields[header.index("agent_id") :: step]))
    try:
        columns = [list(map(float, fields[header.index(name) :: step])) for name in _FIELDS]
    except ValueError:
        return None
    del fields
    spans, hi = [], 0  # (agent, first row, end row) per run of one agent's rows
    for agent, group in groupby(agents):
        lo, hi = hi, hi + len(list(group))
        spans.append((agent, lo, hi))
    ids = {agent for agent, _, _ in spans}
    if "" in ids or len(ids) < len(spans):
        return None
    # a sum is finite only if every term is; an overflow merely falls back
    if not all(map(math.isfinite, map(sum, columns))) or min(columns[4]) < 0.0:
        return None
    t = columns[0]
    dt = 1.0 / frame_rate
    try:
        for agent, lo, hi in spans:
            _check_frame_times(agent, t[lo:hi], dt)
    except TrajectoryError:
        return None
    states = _states(columns)
    return Episode._from_validated(
        float(frame_rate),
        {agent: tuple(states[lo:hi]) for agent, lo, hi in spans},
        {agent: t[lo:hi] for agent, lo, hi in spans},
    )


def _load_rows(lines: List[str], frame_rate: float) -> Episode:
    """:func:`load_trajectories` over any CSV text, one csv.reader row at a
    time, reporting the first fault with its line."""
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise TrajectoryError("trajectory file is empty") from None
    header = [h.strip() for h in header]
    for col in _REQUIRED_COLUMNS:
        if col not in header:
            raise TrajectoryError(f"missing required column '{col}'")
    has_kin = all(c in header for c in _OPTIONAL_COLUMNS)
    i_t, i_agent, i_x, i_y, i_h = map(header.index, _REQUIRED_COLUMNS)
    i_v, i_a = map(header.index, _OPTIONAL_COLUMNS) if has_kin else (0, 0)

    # per agent: (time, x, y, heading, speed, acceleration, line number) rows
    rows: Dict[str, List[Tuple[float, ...]]] = {}
    for lineno, row in enumerate(reader, start=2):
        try:
            t = float(row[i_t])
            agent = row[i_agent].strip()
            x = float(row[i_x])
            y = float(row[i_y])
            heading = float(row[i_h])
            if has_kin:
                speed = float(row[i_v])
                accel = float(row[i_a])
            else:
                speed = 0.0
                accel = 0.0
        except (ValueError, IndexError) as exc:
            # a blank row always fails here, at its time field
            if all(not c.strip() for c in row):
                continue
            raise TrajectoryError(f"malformed row at line {lineno}: {exc}") from exc
        if not agent:
            raise TrajectoryError(f"empty agent id at line {lineno}")
        prev = rows.get(agent)
        if prev is None:
            prev = rows[agent] = []
        elif t <= prev[-1][0]:
            raise TrajectoryError(f"agent '{agent}' has out-of-order timestamps")
        prev.append((t, x, y, heading, speed, accel, lineno))

    trajectories: Dict[str, List[AgentState]] = {}
    for agent, agent_rows in rows.items():
        table = np.array(agent_rows).T
        columns, line_numbers = table[:6], table[6]
        _check_columns(columns, line_numbers)
        if not has_kin and len(agent_rows) > 1:
            columns[4], columns[5] = _kinematics(
                columns[1].tolist(), columns[2].tolist(), frame_rate
            )
            _check_columns(columns, line_numbers)
        trajectories[agent] = _states(columns.tolist())
    return Episode(frame_rate, trajectories)


def save_trajectories(episode: Episode, path: str | Path) -> None:
    """Write an episode as CSV with full float precision."""
    lines = ["time,agent_id,x,y,heading,speed,acceleration"]
    for agent_id in episode.agent_ids():
        for s in episode.trajectories[agent_id]:
            lines.append(
                f"{s.time!r},{agent_id},{s.x!r},{s.y!r},"
                f"{s.heading!r},{s.speed!r},{s.acceleration!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


# -- kinematics ---------------------------------------------------------------


def _smooth5(values: List[float]) -> List[float]:
    """Centered 5-sample moving average, truncated at the boundaries."""
    n = len(values)
    out = []
    for i in range(n):
        lo = max(0, i - 2)
        hi = min(n, i + 3)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


def derive_kinematics(
    states: Sequence[AgentState], frame_rate: float
) -> List[AgentState]:
    """Derive speed and acceleration from positions.

    Speed is the central finite difference of position (one-sided at the
    ends), acceleration the central difference of speed, and both are then
    smoothed with a 5-sample moving average. A single-frame trajectory gets
    zeros.
    """
    n = len(states)
    if n == 0:
        return []
    xs = [s.x for s in states]
    ys = [s.y for s in states]
    speeds, accels = _kinematics(xs, ys, frame_rate) if n > 1 else ([0.0], [0.0])
    return states_from_columns(
        [[s.time for s in states], xs, ys, [s.heading for s in states], speeds, accels]
    )


def _kinematics(
    xs: List[float], ys: List[float], frame_rate: float
) -> Tuple[List[float], List[float]]:
    """:func:`derive_kinematics`' speeds and accelerations for n >= 2 frames."""
    n = len(xs)
    dt = 1.0 / frame_rate

    def step(i: int, j: int) -> float:
        return math.hypot(xs[j] - xs[i], ys[j] - ys[i])

    speeds = [0.0] * n
    speeds[0] = step(0, 1) / dt
    speeds[-1] = step(n - 2, n - 1) / dt
    for i in range(1, n - 1):
        speeds[i] = step(i - 1, i + 1) / (2.0 * dt)

    accels = [0.0] * n
    accels[0] = (speeds[1] - speeds[0]) / dt
    accels[-1] = (speeds[-1] - speeds[-2]) / dt
    for i in range(1, n - 1):
        accels[i] = (speeds[i + 1] - speeds[i - 1]) / (2.0 * dt)

    return [max(v, 0.0) for v in _smooth5(speeds)], _smooth5(accels)


# -- goal labelling and sampling ----------------------------------------------


def first_goal_entry(
    trajectory: Sequence[AgentState], scenario: Scenario
) -> Optional[Tuple[GoalSpec, int]]:
    """First goal whose radius the trajectory enters, with the frame index.

    Simultaneous entry into several goals resolves to scenario goal order.
    """
    for i, state in enumerate(trajectory):
        for goal in scenario.goals:
            if math.hypot(state.x - goal.x, state.y - goal.y) <= goal.radius:
                return goal, i
    return None


def ground_truth_goal(
    trajectory: Sequence[AgentState], scenario: Scenario
) -> Optional[GoalSpec]:
    hit = first_goal_entry(trajectory, scenario)
    return None if hit is None else hit[0]


def _round_half_down(x: float) -> int:
    """Nearest integer, ties toward the smaller value."""
    return int(math.ceil(x - 0.5))


def fraction_cutoffs(trim_index: int) -> List[int]:
    """Frame index per observation fraction, for a trajectory trimmed at
    trim_index (inclusive). Always 11 entries; duplicates possible."""
    return [_round_half_down(f * trim_index) for f in FRACTION_GRID]


def sample_points(trajectory: Sequence[AgentState], goal: GoalSpec) -> List[int]:
    """Deduplicated sample frame indices for one vehicle and its true goal.

    The trajectory is trimmed at the first frame inside the goal radius;
    fractions of the trimmed duration are rounded to the nearest frame with
    ties toward the earlier frame. Trajectories shorter than the grid yield
    every frame once.
    """
    trim = None
    for i, state in enumerate(trajectory):
        if math.hypot(state.x - goal.x, state.y - goal.y) <= goal.radius:
            trim = i
            break
    if trim is None:
        raise TrajectoryError("trajectory never enters the goal radius")
    return sorted(set(fraction_cutoffs(trim)))


def history_for(episode: Episode, vehicle_id: str, cutoff_index: int) -> Episode:
    """Episode truncated for one inference query.

    The subject keeps frames up to cutoff_index; every other agent keeps the
    frames between the subject's first observation and the cutoff time, and
    agents with no such frame are left out. The result is built from tuple
    slices of the parent episode (bisected on its sorted frame times), so no
    state is copied or validated again.
    """
    if vehicle_id not in episode.trajectories:
        raise TrajectoryError(f"unknown vehicle '{vehicle_id}'")
    subject = episode.trajectories[vehicle_id]
    if not (0 <= cutoff_index < len(subject)):
        raise TrajectoryError(
            f"frame {cutoff_index} out of range for vehicle '{vehicle_id}'"
        )
    t_first = subject[0].time - _TIME_TOL
    t_cut = subject[cutoff_index].time + _TIME_TOL
    trajectories = {vehicle_id: subject[: cutoff_index + 1]}
    times = {vehicle_id: episode._times[vehicle_id][: cutoff_index + 1]}
    for agent_id, agent_times in episode._times.items():
        if agent_id == vehicle_id:
            continue
        lo = bisect_left(agent_times, t_first)
        hi = bisect_right(agent_times, t_cut)
        if lo < hi:
            trajectories[agent_id] = episode.trajectories[agent_id][lo:hi]
            times[agent_id] = agent_times[lo:hi]
    return Episode._from_validated(episode.frame_rate, trajectories, times)


# -- dataset assembly ----------------------------------------------------------


@dataclass(frozen=True)
class LabeledSample:
    episode_index: int
    agent_id: str
    frame_index: int
    time: float
    goal_id: str
    goal_type: GoalType
    features: FeatureVector
    label: bool


def build_datasets(
    episodes: Sequence[Episode],
    scenario: Scenario,
    agent_filter: Optional[Set[Tuple[int, str]]] = None,
) -> Dict[Tuple[str, GoalType], List[LabeledSample]]:
    """Labelled samples per (goal, goal type) pair.

    Vehicles that never reach a goal are skipped. Each sampled frame yields
    one sample per reachable goal, labelled by whether that goal is the
    vehicle's true goal. agent_filter, when given, restricts which vehicles
    produce samples; all vehicles still appear as traffic context.
    """
    buckets: Dict[Tuple[str, GoalType], List[LabeledSample]] = {}
    for ep_index, episode in enumerate(episodes):
        for agent_id in episode.agent_ids():
            if agent_filter is not None and (ep_index, agent_id) not in agent_filter:
                continue
            trajectory = episode.trajectories[agent_id]
            hit = first_goal_entry(trajectory, scenario)
            if hit is None:
                continue
            true_goal, trim = hit
            # sample_points' frames: no goal is entered before trim
            for cutoff in sorted(set(fraction_cutoffs(trim))):
                history = history_for(episode, agent_id, cutoff)
                state = trajectory[cutoff]
                routes = reachable_goals(state, scenario)
                if not routes:
                    continue
                features = extract_all(history, agent_id, routes, scenario)
                for route in routes:
                    gtype = assign_goal_type(state, route, scenario)
                    sample = LabeledSample(
                        episode_index=ep_index,
                        agent_id=agent_id,
                        frame_index=cutoff,
                        time=state.time,
                        goal_id=route.goal.goal_id,
                        goal_type=gtype,
                        features=features[route.goal.goal_id],
                        label=route.goal.goal_id == true_goal.goal_id,
                    )
                    buckets.setdefault((route.goal.goal_id, gtype), []).append(sample)
    return buckets
