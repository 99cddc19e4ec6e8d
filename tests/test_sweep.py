import weakref

import numpy as np
import pytest

from dtc_sense import metrology, model, sweep
from dtc_sense.errors import ConfigError, ResourceLimitError
from dtc_sense.metrology import TRACE_COLUMNS
from dtc_sense.sweep import (
    apply_dict,
    base_config,
    emit_table,
    evaluate_point,
    parse_config_text,
    point_configs,
    run_sweep,
    sidecar_path,
)


# ----------------------------------------------------------------- parsing

def test_parse_scalars_comments_and_axes():
    cfg = parse_config_text("""
        # probe size
        L = 5
        h_a_per_Jz = 1e-3, 1e-2   # two field points
        cycles = 12
    """)
    assert cfg.get("L") == 5
    assert isinstance(cfg.get("L"), int)
    assert cfg.get("cycles") == 12
    assert cfg.axes["h_a_per_Jz"] == [1e-3, 1e-2]
    assert "h_a_per_Jz" not in cfg.fixed
    # fixed and axes are the two kinds of one dict of values
    assert cfg.values == {**cfg.fixed, **cfg.axes}


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_parse_rejects_non_sweepable_list():
    with pytest.raises(ConfigError, match="not sweepable"):
        parse_config_text("cycles = 10, 20\n")


def test_parse_rejects_empty_list():
    with pytest.raises(ConfigError, match="empty value list"):
        parse_config_text("eta = ,\n")


def test_hash_opens_a_comment_only_at_line_start_or_after_whitespace():
    # inside a value '#' is text: `in = h#1.csv` names the file h#1.csv
    cfg = parse_config_text("in = h#1.csv\n#L = 7\n"
                            "h_a_per_Jz = 1e-3, 1e-2   # two field points\n",
                            base_config("fit"))
    assert cfg.get("in") == "h#1.csv"
    assert "L" not in cfg.values
    cfg = parse_config_text("h_a_per_Jz = 1e-3, 1e-2   # two field points\n")
    assert cfg.axes["h_a_per_Jz"] == [1e-3, 1e-2]
    with pytest.raises(ConfigError, match="cannot parse value '5#6'"):
        parse_config_text("L = 5#6\n")


@pytest.mark.parametrize("text", ["L = 3,\n", "L = 3,,4\n", "L = ,3\n"])
def test_parse_rejects_an_empty_list_item(text):
    # a stray comma is an error naming the key, not a one-value axis
    with pytest.raises(ConfigError, match="line 1: empty item .* key 'L'"):
        parse_config_text(text)


def test_later_assignment_replaces_axis():
    cfg = parse_config_text("eta = 0.0, 0.1\neta = 0.2\n")
    assert "eta" not in cfg.axes
    assert cfg.get("eta") == 0.2


def test_apply_dict_mirrors_text_semantics():
    cfg = apply_dict(base_config(), {"L": [3, 4], "cycles": 5})
    assert cfg.axes["L"] == [3, 4]
    assert cfg.get("cycles") == 5
    with pytest.raises(ConfigError):
        apply_dict(base_config(), {"cycles": [5, 6]})


def test_resolved_view_serializes_axes():
    cfg = apply_dict(base_config(), {"L": [3, 4]})
    view = cfg.resolved()
    assert view["L"] == "3,4"  # config-file syntax round-trips
    assert "epsilon" in view


# ------------------------------------------------------------------- gates

def _point(**values):
    return {**base_config().fixed, **values}


def test_pure_state_size_gate():
    # the gate counts the state the engine holds: 4^L amplitudes at tilt > 0,
    # 2^L in the tilt-0 pair-qubit sector; both budgets are 4^8
    params = _point(L=9, gamma_per_Jz=0.0, theta_rad=0.1)
    with pytest.raises(ResourceLimitError):
        point_configs(params)
    point_configs(_point(L=8, gamma_per_Jz=0.0, theta_rad=0.1))
    with pytest.raises(ResourceLimitError):
        point_configs(_point(L=17, gamma_per_Jz=0.0))
    probe, _, _, _ = point_configs(_point(L=16, gamma_per_Jz=0.0))
    assert probe.pair_dim == 2 and probe.dim == 4 ** 8


def test_lindblad_size_gate():
    # density matrices: d^L rows up to 4^5, so L <= 5 at tilt > 0, L <= 10
    # at tilt 0
    with pytest.raises(ResourceLimitError):
        point_configs(_point(L=6, gamma_per_Jz=1e-3, theta_rad=0.1))
    point_configs(_point(L=5, gamma_per_Jz=1e-3, theta_rad=0.1))
    with pytest.raises(ResourceLimitError):
        point_configs(_point(L=11, gamma_per_Jz=1e-3))
    point_configs(_point(L=10, gamma_per_Jz=1e-3))


def test_gate_follows_the_engine_that_runs():
    # L = 6 tilted is beyond the density-matrix gate only: a point at
    # gamma = 0, with no cycles, or without either key (as transition
    # gives it) runs the pure engine
    with pytest.raises(ResourceLimitError):
        point_configs(_point(L=6, gamma_per_Jz=1e-3, theta_rad=0.1))
    point_configs(_point(L=6, gamma_per_Jz=0.0, theta_rad=0.1))
    point_configs(_point(L=6, gamma_per_Jz=1e-3, theta_rad=0.1, cycles=0))
    point_configs({**base_config("transition").fixed, "L": 6,
                   "theta_rad": 0.1})


# ------------------------------------------------------------- evaluation

def _tiny_cfg(**extra):
    cfg = base_config()
    return apply_dict(cfg, {"L": 2, "cycles": 3, **extra})


def test_single_point_rows():
    names, rows = run_sweep(_tiny_cfg())
    assert names == []
    assert len(rows) == 4  # n = 0..3
    n0 = rows[0]
    assert n0[0] == 0 and n0[1] == pytest.approx(1.0) and n0[2] == 0.0


def test_axis_expansion_and_ordering():
    cfg = _tiny_cfg()
    apply_dict(cfg, {"L": [3, 2], "eta": [0.1, 0.0]})
    names, rows = run_sweep(cfg)
    assert names == ["L", "eta"]
    keys = [(r[0], r[1]) for r in rows[:: 4]]
    assert keys == [(2, 0.0), (2, 0.1), (3, 0.0), (3, 0.1)]
    assert len(rows) == 4 * 4


def test_workers_do_not_change_results():
    cfg = _tiny_cfg(h_a_per_Jz=1e-3)
    apply_dict(cfg, {"L": [2, 3]})
    serial = run_sweep(cfg)
    parallel = run_sweep(apply_dict(cfg, {"workers": 2}))
    assert serial[0] == parallel[0]
    assert np.array_equal(serial[1], parallel[1])


def test_workers_run_the_pieces_of_a_split_group(monkeypatch):
    # one group of five fields, cut into pieces of two by the state budget:
    # a two-worker pool runs the pieces and gives the serial rows exactly
    monkeypatch.setattr(model, "PURE_STATE_MAX_DIM", 16)  # 2 per piece at L=3
    cfg = _tiny_cfg(L=3, cycles=6)
    apply_dict(cfg, {"h_a_per_Jz": [1e-4, 1e-3, 1e-2, 0.1, 0.5]})
    names, serial = run_sweep(cfg)
    pool_names, pooled = run_sweep(apply_dict(cfg, {"workers": 2}))
    assert pool_names == names and np.array_equal(pooled, serial)


@pytest.mark.parametrize("workers,fields,created,tasks", [
    (64, 3, [2], [[2, 1]]),   # never more workers than tasks
    (2, 5, [2], [[2, 2, 1]]),
    (2, 2, [], []),           # one task runs serially, with no pool
    (1, 5, [], []),
])
def test_pool_gets_one_task_per_piece(monkeypatch, workers, fields, created,
                                      tasks):
    import concurrent.futures
    seen_workers, seen_tasks = [], []

    class InlinePool:
        # stands in for ProcessPoolExecutor: records max_workers and the
        # fields of each task, and runs the tasks in this process
        def __init__(self, max_workers):
            seen_workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            args = list(zip(*iterables))
            seen_tasks.append([len(configs) for _, configs in args])
            return [fn(*a) for a in args]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(model, "PURE_STATE_MAX_DIM", 16)  # 2 per piece at L=3
    cfg = _tiny_cfg(L=3, cycles=2, workers=workers)
    apply_dict(cfg, {"h_a_per_Jz": list(np.logspace(-4, -1, fields))})
    run_sweep(cfg)
    assert (seen_workers, seen_tasks) == (created, tasks)


def test_sweep_rows_match_single_point_rows(monkeypatch):
    # pure points that differ only in h_a_per_Jz run as one field batch,
    # and match their own single-point rows
    batches = []
    traces = sweep.stroboscopic_traces

    def recording(probe, fields, *args):
        batches.append(len(fields))
        return traces(probe, fields, *args)

    monkeypatch.setattr(sweep, "stroboscopic_traces", recording)
    cfg = _tiny_cfg(cycles=8, delta_f=0.01)
    apply_dict(cfg, {"L": [2, 3], "h_a_per_Jz": [1e-4, 1e-2, 0.3],
                     "eta": [0.0, 0.1], "theta_rad": [0.0, 0.1]})
    names, rows = run_sweep(cfg)
    assert batches == [3] * 8
    _assert_rows_match_points(cfg, names, rows, 24)


def test_dephased_sweep_batches_the_field_axis(monkeypatch):
    # dephased points that differ only in h_a_per_Jz arrive as one
    # noisy_fisher batch, and match their own single-point rows
    batches = []
    traces = sweep.noisy_fisher

    def recording(probe, fields, *args):
        batches.append(len(fields))
        return traces(probe, fields, *args)

    monkeypatch.setattr(sweep, "noisy_fisher", recording)
    cfg = _tiny_cfg(cycles=8, delta_f=0.01, eta=0.1, gamma_per_Jz=1e-3)
    apply_dict(cfg, {"L": [2, 3], "h_a_per_Jz": [1e-4, 1e-2, 0.3],
                     "theta_rad": [0.0, 0.1]})
    names, rows = run_sweep(cfg)
    assert batches == [3] * 4
    _assert_rows_match_points(cfg, names, rows, 12)


def _assert_rows_match_points(cfg, names, rows, points):
    # every point's rows match its own evaluate_point rows to 1e-13 of each
    # column's largest value
    by_key = {}
    for row in rows:
        by_key.setdefault(tuple(row[:len(names)]), []).append(row[len(names):])
    assert len(by_key) == points
    for key, got in by_key.items():
        params = {**cfg.fixed, **dict(zip(names, key))}
        ref = evaluate_point(params).rows[:, 1:]
        got = np.array(got)[:, 1:]
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale), key


def test_gamma_axis_routes_to_density_matrix_path():
    cfg = _tiny_cfg(h_a_per_Jz=1e-3, gamma_per_Jz=2e-3, cycles=2)
    names, rows = run_sweep(cfg)
    assert len(rows) == 3
    # dephasing pulls the revival below the unitary value
    unitary = run_sweep(_tiny_cfg(h_a_per_Jz=1e-3, cycles=2))[1]
    assert abs(rows[2][1]) <= abs(unitary[2][1]) + 1e-9


def test_sweep_gate_applies_before_any_work():
    cfg = _tiny_cfg()
    apply_dict(cfg, {"L": [2, 17]})
    with pytest.raises(ResourceLimitError):
        run_sweep(cfg)


# ------------------------------------------------------------------ output

def test_emit_table_format_and_determinism(tmp_path):
    cfg = _tiny_cfg(h_a_per_Jz=1e-3)
    apply_dict(cfg, {"eta": [0.0, 0.1]})
    names, rows = run_sweep(cfg)
    out = tmp_path / "table.csv"
    emit_table(names, rows, str(out), cfg.resolved())
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "eta," + ",".join(TRACE_COLUMNS)
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    # round-trip at 12 significant digits
    parsed = np.genfromtxt(str(out), delimiter=",", names=True)
    assert np.allclose(parsed["qfi"], [r[-3] for r in rows], rtol=1e-11)
    emit_table(names, rows, str(tmp_path / "again.csv"), cfg.resolved())
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


def test_sidecar_lists_version_and_sorted_config(tmp_path):
    cfg = _tiny_cfg()
    names, rows = run_sweep(cfg)
    out = tmp_path / "run.csv"
    emit_table(names, rows, str(out), cfg.resolved())
    side = tmp_path / "run.meta.txt"
    assert sidecar_path(str(out)) == str(side)
    lines = side.read_text().splitlines()
    assert lines[0].startswith("dtc-sense ")
    keys = [ln.split(" = ")[0] for ln in lines[1:]]
    assert keys == sorted(keys)
    assert "L = 2" in lines[1:]
    assert not any("time" in ln.lower() for ln in lines)


@pytest.mark.parametrize("value,text", [
    (0.0, "0"), (-0.0, "0"), (1.0, "1"),
    (123456789012345.0, "123456789012345"), (1e15, "1e+15"),
    (1e-05, "1e-05"), (3.2e-10, "3.2e-10"),
    (10 ** 16, "10000000000000000"), ("Dy", "Dy"),
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
])
def test_emit_table_number_rule_at_its_edges(tmp_path, value, text):
    # the value opens, splits and closes a row of ordinary numbers
    out = tmp_path / "edge.csv"
    emit_table([], [(value, 0.5, value, -2.25, value)], str(out),
               columns=tuple("abcde"))
    assert out.read_text() == f"a,b,c,d,e\n{text},0.5,{text},-2.25,{text}\n"
    assert sweep._fmt(value) == text


def test_emit_table_writes_an_array_as_its_list_of_tuples(tmp_path):
    # the number rule's edges, one per row, and integral floats in a row of
    # their own: the array and its list of tuples give the same bytes
    edges = [-0.0, float("nan"), float("inf"), float("-inf"), 3.0, 1e12,
             123456789012345.0, 1e15, 2.5e-7]
    rows = [(v, 0.5, 7.0, v, -2.25) for v in edges] + [(1.0, 2.0, 0.0, -4.0,
                                                         1e14)]
    emit_table([], rows, str(tmp_path / "tuples.csv"))
    emit_table([], np.array(rows), str(tmp_path / "array.csv"))
    text = (tmp_path / "array.csv").read_text()
    assert (tmp_path / "tuples.csv").read_text() == text
    assert text.splitlines()[1:] == [
        ",".join(map(sweep._fmt, row)) for row in rows]


def test_emit_table_loses_and_doubles_no_row_at_a_chunk_edge(tmp_path,
                                                              monkeypatch):
    monkeypatch.setattr(sweep, "WRITE_CHUNK_ROWS", 4)
    for count in (3, 4, 5, 8, 9):
        table = np.arange(count * 2, dtype=float).reshape(count, 2)
        out = tmp_path / f"rows{count}.csv"
        emit_table(["a"], table, str(out), columns=("b",))
        lines = out.read_text().splitlines()
        assert lines == ["a,b"] + [f"{2 * i},{2 * i + 1}"
                                   for i in range(count)]


def test_run_sweep_table_is_the_stacked_trace_rows(monkeypatch):
    # the one table run_sweep allocates holds each point's axis values
    # beside its trace's rows, in sorted axis-value order, bit for bit
    traces, evaluate_group = {}, sweep.evaluate_group

    def recording(cycles, configs):
        batch = evaluate_group(cycles, configs)
        for (probe, fld, _, _), trace in zip(configs, batch):
            traces[probe.length, fld.h_a] = trace
        return batch

    monkeypatch.setattr(sweep, "evaluate_group", recording)
    cfg = _tiny_cfg(cycles=4)
    apply_dict(cfg, {"L": [3, 2], "h_a_per_Jz": [1e-2, 1e-3]})
    names, table = run_sweep(cfg)
    assert names == ["L", "h_a_per_Jz"]
    assert sorted(traces) == [(2, 1e-3), (2, 1e-2), (3, 1e-3), (3, 1e-2)]
    blocks = [np.column_stack((np.tile(key, (5, 1)), traces[key].rows))
              for key in sorted(traces)]
    assert table.shape == (4 * 5, 2 + len(TRACE_COLUMNS))
    assert np.array_equal(table, np.vstack(blocks))


def test_sweep_table_does_not_depend_on_the_order_of_axis_values(
        monkeypatch):
    # a group the state budget splits is cut in ascending h_a whatever the
    # order the values were given in, so both tables agree bit for bit
    monkeypatch.setattr(model, "PURE_STATE_MAX_DIM", 16)  # 2 per piece at L=3
    pieces, evaluate_group = [], sweep.evaluate_group

    def recording(cycles, configs):
        pieces.append([fld.h_a for _, fld, _, _ in configs])
        return evaluate_group(cycles, configs)

    monkeypatch.setattr(sweep, "evaluate_group", recording)
    h_a = [0.5, 1e-4, 0.1, 1e-2, 1e-3]
    tables = []
    for values in (h_a, sorted(h_a)):
        cfg = _tiny_cfg(L=3, cycles=6, delta_f=0.01, eta=0.1)
        apply_dict(cfg, {"h_a_per_Jz": values})
        tables.append(run_sweep(cfg)[1])
    assert np.array_equal(*tables)
    assert pieces == [[1e-4, 1e-3], [1e-2, 0.1], [0.5]] * 2


def test_simulate_table_is_its_trace_record(monkeypatch):
    # with no axes the table is the trace's rows, not a copy of them
    traces, record_trace = [], metrology.record_trace

    def recording(*args):
        traces.extend(record_trace(*args))
        return traces

    monkeypatch.setattr(metrology, "record_trace", recording)
    names, table = run_sweep(_tiny_cfg(cycles=3))
    assert names == [] and len(traces) == 1
    assert np.shares_memory(table, traces[0].rows)


@pytest.mark.parametrize("fields", [1, 3])
def test_sweep_frees_each_piece_before_the_next_runs(monkeypatch, fields):
    # a piece's record lives only until its rows are in the table, so at
    # most one piece is held beside it: three pieces, two of them split
    # from one group by the state budget when fields = 3
    monkeypatch.setattr(model, "PURE_STATE_MAX_DIM", 16)  # 2 per piece at L=3
    records, live, evaluate_group = [], [], sweep.evaluate_group

    def recording(cycles, configs):
        live.append(sum(ref() is not None for ref in records))
        batch = evaluate_group(cycles, configs)
        records.append(weakref.ref(batch[0].rows.base))
        return batch

    monkeypatch.setattr(sweep, "evaluate_group", recording)
    cfg = _tiny_cfg(cycles=4)
    h_a = [1e-3, 1e-2, 0.1][:fields]
    apply_dict(cfg, {"L": [2, 3] if fields == 3 else [1, 2, 3],
                     "h_a_per_Jz": h_a if fields > 1 else h_a[0]})
    names, table = run_sweep(cfg)
    assert live == [0] * len(records) and len(records) == 3
    assert not any(ref() for ref in records)


def test_emit_table_refuses_empty_rows(tmp_path):
    with pytest.raises(ConfigError):
        emit_table([], [], str(tmp_path / "none.csv"))
    with pytest.raises(ConfigError):
        emit_table([], np.empty((0, 5)), str(tmp_path / "none.csv"))


def test_emit_table_surfaces_write_failure(tmp_path):
    names, rows = run_sweep(_tiny_cfg())
    with pytest.raises(ConfigError, match="cannot write"):
        emit_table(names, rows, str(tmp_path / "missing" / "x.csv"))
