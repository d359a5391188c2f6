"""Column-wise CSV loading and the bulk state builder against their references.

load_trajectories parses plain files one column at a time and sends every
other file, and every fault, to the row loop over csv.reader. Each case here
must give the row loop's episode (every state's repr, dict order, frame
times) or its exact TrajectoryError text. The bulk builder must equal the
validating AgentState constructor.
"""

import csv
import hashlib
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from grit.errors import TrajectoryError
from grit.evaluation import generate_synthetic
from grit.trajectory import (
    AgentState,
    Episode,
    _build_states,
    _load_columns,
    _load_rows,
    _states,
    load_trajectories,
    save_trajectories,
    states_from_columns,
)

FR = 25.0
FIELDS = ("time", "x", "y", "heading", "speed", "acceleration")
HEADER = ("time", "agent_id", "x", "y", "heading", "speed", "acceleration")


def _outcome(load):
    """The loaded episode, or the text of the TrajectoryError it raised."""
    try:
        return load()
    except TrajectoryError as exc:
        return f"TrajectoryError: {exc}"


def _assert_same(got, expected):
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert type(got) is Episode and got.frame_rate == expected.frame_rate
    assert list(got.trajectories) == list(expected.trajectories)
    for agent, states in expected.trajectories.items():
        assert type(got.trajectories[agent]) is tuple
        assert [repr(s) for s in got.trajectories[agent]] == [repr(s) for s in states]
        assert all(type(s) is AgentState for s in got.trajectories[agent])
    assert got._times == expected._times
    assert all(type(t) is list for t in got._times.values())
    assert [repr(t) for t in got._times.values()] == [
        repr(t) for t in expected._times.values()
    ]


def _check_against_row_loop(path):
    """Assert load_trajectories(path) equals the row loop; return what it
    loaded and whether the column path took the file."""
    lines = path.read_text().splitlines()
    expected = _outcome(lambda: _load_rows(lines, FR))
    loaded = _outcome(lambda: load_trajectories(path, FR))
    _assert_same(loaded, expected)
    plain = all('"' not in line and "\0" not in line for line in lines)
    fast = _load_columns(lines, FR) if plain else None
    if fast is not None:
        _assert_same(fast, expected)
    return loaded, fast is not None


# -- every CSV that synthesis writes -------------------------------------------------


def test_column_path_equals_row_loop_on_fixture_csvs(tmp_path, fixture_world):
    for i, episode in enumerate(fixture_world[1]):
        path = tmp_path / f"episode_{i}.csv"
        save_trajectories(episode, path)
        loaded, took_columns = _check_against_row_loop(path)
        assert took_columns
        _assert_same(loaded, episode)


@pytest.mark.parametrize("template", ["t_junction", "crossroad"])
@pytest.mark.parametrize("vehicles_per_episode", [1, 5, 25])
def test_column_path_equals_row_loop_on_synthetic_csvs(tmp_path, template, vehicles_per_episode):
    _, episodes = generate_synthetic(
        template, 30, seed=3, vehicles_per_episode=vehicles_per_episode
    )
    for i, episode in enumerate(episodes):
        path = tmp_path / f"episode_{i}.csv"
        save_trajectories(episode, path)
        loaded, took_columns = _check_against_row_loop(path)
        assert took_columns
        _assert_same(loaded, episode)


# -- each kind of deviation ----------------------------------------------------------

GOOD = [
    "0.0,a,0.0,0.0,0.5,1.0,0.0",
    "0.04,a,0.1,0.0,0.5,1.0,0.0",
    "0.08,a,0.2,0.0,0.5,1.0,0.0",
    "0.04,b,5.0,1.0,-0.5,2.0,0.1",
    "0.08,b,5.1,1.0,-0.5,2.0,0.1",
]


def _csv(header=",".join(HEADER), rows=GOOD, newline="\n"):
    return newline.join([header, *rows]) + newline


CASES = {
    # (text, whether the column path takes it)
    "plain": (_csv(), True),
    "no trailing newline": (_csv().rstrip("\n"), True),
    "one agent, one row": (_csv(rows=GOOD[:1]), True),
    "header only": (_csv(rows=[]), False),
    "empty file": ("", False),
    "CRLF line endings": (_csv(newline="\r\n"), True),
    "header whitespace": (_csv(header=" time ,agent_id , x,y,heading,speed ,acceleration"), True),
    "field whitespace": (_csv(rows=[" 0.0 , a ,0.0,0.0,0.5,1.0,0.0", *GOOD[1:]]), True),
    "extra column": (
        _csv(header=",".join(HEADER) + ",note", rows=[r + ",x y" for r in GOOD]), True
    ),
    "reordered columns": (
        _csv(
            header=",".join(reversed(HEADER)),
            rows=[",".join(reversed(r.split(","))) for r in GOOD],
        ),
        True,
    ),
    "duplicate column": (
        _csv(header=",".join(HEADER) + ",x", rows=[r + ",9.0" for r in GOOD]), True
    ),
    "missing optional columns": (
        _csv(header="time,agent_id,x,y,heading", rows=[",".join(r.split(",")[:5]) for r in GOOD]),
        False,
    ),
    "one optional column": (
        _csv(header="time,agent_id,x,y,heading,speed", rows=[",".join(r.split(",")[:6]) for r in GOOD]),
        False,
    ),
    "missing required column": (_csv(header="time,agent_id,x,y,speed,acceleration,z"), False),
    "quoted field": (_csv(rows=['"0.0",a,0.0,0.0,0.5,1.0,0.0', *GOOD[1:]]), False),
    "quoted agent id": (_csv(rows=[r.replace(",a,", ',"a",') for r in GOOD]), False),
    "quoted comma": (_csv(rows=['0.0,"a,b",0.0,0.0,0.5,1.0,0.0', *GOOD[1:]]), False),
    "quote in header": (_csv(header='"time",agent_id,x,y,heading,speed,acceleration'), False),
    "blank line": (_csv(rows=[*GOOD[:2], "", *GOOD[2:]]), False),
    "whitespace line": (_csv(rows=[*GOOD[:2], "  ", *GOOD[2:]]), False),
    "comma-only line": (_csv(rows=[*GOOD[:2], ",,,,,,", *GOOD[2:]]), False),
    "short row": (_csv(rows=[*GOOD[:2], "0.08,a,0.2,0.0", *GOOD[3:]]), False),
    "long row": (_csv(rows=[*GOOD[:2], GOOD[2] + ",7", *GOOD[3:]]), False),
    # the row counts add up, and the shifted fields would still parse
    "long row, then short row": (
        _csv(header="note," + ",".join(HEADER),
             rows=["n," + GOOD[0], "n," + GOOD[1] + ",7", GOOD[2], *("n," + r for r in GOOD[3:])]),
        False,
    ),
    "underscore digits": (_csv(rows=["0.0,a,1_0,0.0,0.5,1.0,0.0", *GOOD[1:]]), True),
    "Arabic-Indic digits": (_csv(rows=["0.0,a,١.٥,0.0,0.5,1.0,0.0", *GOOD[1:]]), True),
    "exponent and sign": (_csv(rows=["0.0,a,+1E-3,-0.0,0.5,1.0,-0", *GOOD[1:]]), True),
    "headings outside (-pi, pi]": (
        _csv(rows=["0.0,a,0.0,0.0,-3.141592653589793,1.0,0.0",
                   "0.04,a,0.1,0.0,3.141592653589793,1.0,0.0",
                   "0.08,a,0.2,0.0,1e6,1.0,0.0", *GOOD[3:]]),
        True,
    ),
    "Infinity": (_csv(rows=["0.0,a,Infinity,0.0,0.5,1.0,0.0", *GOOD[1:]]), False),
    "nan": (_csv(rows=[*GOOD[:3], "0.04,b,nan,1.0,-0.5,2.0,0.1", GOOD[4]]), False),
    "overflowing value": (_csv(rows=["0.0,a,1e400,0.0,0.5,1.0,0.0", *GOOD[1:]]), False),
    "hex float": (_csv(rows=["0.0,a,0x1p3,0.0,0.5,1.0,0.0", *GOOD[1:]]), False),
    "bad float": (_csv(rows=[*GOOD[:4], "0.08,b,5.1,one,-0.5,2.0,0.1"]), False),
    "negative speed": (_csv(rows=[*GOOD[:1], "0.04,a,0.1,0.0,0.5,-1.0,0.0", *GOOD[2:]]), False),
    "negative zero speed": (_csv(rows=["0.0,a,0.0,0.0,0.5,-0.0,0.0", *GOOD[1:]]), True),
    "empty agent id": (_csv(rows=[*GOOD[:3], "0.04, ,5.0,1.0,-0.5,2.0,0.1", GOOD[4]]), False),
    "non-contiguous agent rows": (_csv(rows=[GOOD[0], GOOD[3], GOOD[1], GOOD[4], GOOD[2]]), False),
    "out-of-order times": (_csv(rows=[GOOD[1], GOOD[0], *GOOD[2:]]), False),
    "repeated time": (_csv(rows=[GOOD[0], GOOD[0], *GOOD[1:]]), False),
    "frame gap": (_csv(rows=[GOOD[0], GOOD[2], *GOOD[3:]]), False),
    "NUL in agent id": (_csv(rows=[*GOOD[:3], *(r.replace(",b,", ",b\0,") for r in GOOD[3:])]), False),
}


@pytest.mark.parametrize("name", list(CASES))
def test_column_path_equals_row_loop(tmp_path, name):
    text, takes_columns = CASES[name]
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode())
    assert _check_against_row_loop(path)[1] is takes_columns


def test_oversized_field_is_a_trajectory_error(tmp_path):
    # csv.reader refuses a field longer than its limit, which no plain split does
    path = tmp_path / "long.csv"
    path.write_text(_csv(rows=[GOOD[0].replace(",a,", "," + "a" * 200_000 + ",")]))
    assert _load_columns(path.read_text().splitlines(), FR) is None
    with pytest.raises(TrajectoryError, match="malformed CSV: field larger than field limit"):
        load_trajectories(path, FR)


def test_undecodable_file_is_a_trajectory_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(_csv(rows=[GOOD[0].replace(",a,", ",\xe9,")]).encode("latin-1"))
    with pytest.raises(TrajectoryError, match="cannot read trajectory file"):
        load_trajectories(path, FR)


# str.splitlines() also breaks lines at these; csv.reader does not
LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", LINE_BREAKS, ids=ascii)
def test_line_break_characters_stay_inside_an_agent_id(tmp_path, char):
    agent = f"a{char}b"
    path = tmp_path / "case.csv"
    path.write_bytes(_csv(rows=[r.replace(",a,", f",{agent},") for r in GOOD]).encode())
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    lines = [",".join(row) for row in rows]
    expected = _load_rows(lines, FR)
    assert list(expected.trajectories) == list(dict.fromkeys(r[1] for r in rows[1:])) == [agent, "b"]
    _assert_same(_load_columns(lines, FR), expected)
    _assert_same(load_trajectories(path, FR), expected)
    # a fault after those rows is reported at its own line
    path.write_bytes(_csv(rows=[*(r.replace(",a,", f",{agent},") for r in GOOD), "0.12,b,x"]).encode())
    with pytest.raises(TrajectoryError, match="malformed row at line 7"):
        load_trajectories(path, FR)


# -- generated CSV text ----------------------------------------------------------------

NUMBER_SPELLINGS = [
    "1_0", "١٢.٥", "Infinity", "-inf", "nan", " 1.5 ", "1e400",
    "-1.0", "-0.0", "0x1p3", "abc", "", "+2", "3.", ".5e1",
]


@st.composite
def csv_texts(draw):
    columns = list(HEADER)
    if draw(st.booleans()):
        columns.append("note")
    dropped = draw(st.sampled_from([()] * 4 + [("speed", "acceleration"), ("acceleration",)]))
    columns = [c for c in columns if c not in dropped]
    columns = draw(st.permutations(columns))

    finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
    heading = st.one_of(
        finite,
        st.sampled_from([
            math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
            0.0, -0.0, 3 * math.pi, -7.5,
        ]),
    )
    rows = []
    for agent in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, 4))
        for k in range(draw(st.integers(1, 5))):
            rows.append({
                "time": repr((start + k) / FR),
                "agent_id": f"v{agent}",
                "x": repr(draw(finite)),
                "y": repr(draw(finite)),
                "heading": repr(draw(heading)),
                "speed": repr(draw(st.floats(min_value=0.0, max_value=60.0))),
                "acceleration": repr(draw(finite)),
                "note": draw(st.sampled_from(["", "x", " y "])),
            })
    if draw(st.integers(0, 3)) == 0:  # interleave agents frame by frame
        rows.sort(key=lambda row: float(row["time"]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        column = draw(st.sampled_from(columns))
        if column == "agent_id":
            row[column] = draw(st.sampled_from(["", " ", " v0 ", "v1"]))
        else:
            row[column] = draw(st.sampled_from(NUMBER_SPELLINGS))
    if len(rows) > 1 and draw(st.integers(0, 3)) == 0:  # swap two rows
        i, j = draw(st.permutations(range(len(rows))))[:2]
        rows[i], rows[j] = rows[j], rows[i]

    lines = [
        ",".join(draw(st.sampled_from([c, f" {c}", f"{c} "])) for c in columns)
    ]
    for row in rows:
        fields = [row[c] for c in columns]
        if draw(st.integers(0, 19)) == 0:
            fields = [f'"{f}"' for f in fields]
        lines.append(",".join(fields))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        junk = draw(st.sampled_from(["", "  ", "," * (len(columns) - 1), "0.0,v0", "0.0,v0,1,2"]))
        lines.insert(draw(st.integers(1, len(lines))), junk)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_generated_csv_equals_row_loop(csv_dir, text):
    path = csv_dir / "generated.csv"
    path.write_bytes(text.encode())
    _check_against_row_loop(path)


# -- the bulk state builder ------------------------------------------------------------

EDGE_HEADINGS = [
    math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
    math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0),
    0.0, -0.0, 2 * math.pi, -2 * math.pi, 3 * math.pi, 1e6, -1e-300, 5e-324,
]


def _bits(state):
    return tuple(getattr(state, f).hex() + str(math.copysign(1.0, getattr(state, f))) for f in FIELDS)


def _assert_public(states, columns):
    public = [AgentState(*row) for row in zip(*columns)]
    assert all(type(s) is AgentState and not hasattr(s, "__dict__") for s in states)
    assert [_bits(s) for s in states] == [_bits(p) for p in public]
    assert [repr(s) for s in states] == [repr(p) for p in public]
    assert states == public


finite = st.floats(allow_nan=False, allow_infinity=False)
rows = st.tuples(
    finite, finite, finite,
    st.one_of(finite, st.sampled_from(EDGE_HEADINGS)),
    st.floats(min_value=0.0, allow_infinity=False),
    finite,
)


@given(st.lists(rows, max_size=30))
def test_bulk_builder_equals_public_constructor(row_list):
    columns = [list(c) for c in zip(*row_list)] if row_list else [[] for _ in FIELDS]
    _assert_public(_states(columns), columns)
    _assert_public(states_from_columns(columns), columns)
    wrapped = [[getattr(s, f) for s in _states(columns)] for f in FIELDS]
    _assert_public(_build_states(*wrapped), wrapped)


def test_bulk_builder_keeps_heading_bits_on_edges():
    n = len(EDGE_HEADINGS)
    columns = [[0.04 * k for k in range(n)], [0.0] * n, [-0.0] * n, list(EDGE_HEADINGS),
               [-0.0] * n, [0.0] * n]
    states = _states(columns)
    _assert_public(states, columns)
    for state, h in zip(states, EDGE_HEADINGS):
        if -math.pi < h <= math.pi:  # kept bit for bit
            assert state.heading.hex() == h.hex()
            assert math.copysign(1.0, state.heading) == math.copysign(1.0, h)
    assert states[1].heading == math.pi  # -pi wraps to pi
    assert math.copysign(1.0, states[7].heading) == -1.0
    assert math.copysign(1.0, states[0].speed) == -1.0


@given(st.lists(rows, min_size=1, max_size=20), st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_unpickled_episode_is_bit_equal(row_list, protocol):
    columns = [list(c) for c in zip(*row_list)]
    columns[0] = [k / FR for k in range(len(row_list))]
    episode = Episode(FR, {"a": states_from_columns(columns), "b": states_from_columns(columns)[:1]})
    back = pickle.loads(pickle.dumps(episode, protocol))
    _assert_same(back, episode)
    for agent, states in episode.trajectories.items():
        assert [_bits(s) for s in back.trajectories[agent]] == [_bits(s) for s in states]
    for state in episode.trajectories["a"]:
        alone = pickle.loads(pickle.dumps(state, protocol))
        assert type(alone) is AgentState and _bits(alone) == _bits(state)


# SHA-256 of pickle.dumps(episodes, HIGHEST_PROTOCOL) for generate_synthetic(
# template, 20, seed=7): the pickle format of episodes and states is unchanged
EPISODE_PICKLE_DIGESTS = {
    "t_junction": "4dc5dba7c9807822921e9e2bf197b9859a04cc8f6609d6aa2be5e5c3efd414f3",
    "crossroad": "676408da897f4941adb4cb493761b25e156cb214de587c5f6733845c7cfa02f7",
}


@pytest.mark.parametrize("template", list(EPISODE_PICKLE_DIGESTS))
def test_episode_pickle_bytes_are_pinned(template):
    _, episodes = generate_synthetic(template, 20, seed=7)
    blob = pickle.dumps(episodes, pickle.HIGHEST_PROTOCOL)
    assert hashlib.sha256(blob).hexdigest() == EPISODE_PICKLE_DIGESTS[template]
    back = pickle.loads(blob)
    for a, b in zip(episodes, back):
        _assert_same(b, a)
    assert pickle.dumps(back, pickle.HIGHEST_PROTOCOL) == blob
