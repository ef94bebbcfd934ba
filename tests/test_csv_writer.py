"""The column writer of the experiment tables against a row-wise oracle.

The oracle is the row writer the tables were first written with:
``csv.writer(lineterminator="\\r\\n")`` over rows whose values are
formatted by ``oracle_fmt``.  The column writer must write the same bytes
for every table it accepts, however the rows are split into blocks.
"""

import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncbayes import config as config_mod
from ncbayes import graph, hmc
from ncbayes.analysis import (
    LocalFactorSummary,
    cp_squared_correlation,
    dncp_squared_correlation,
    lds_correlations,
    prefer_dncp,
)
from ncbayes.cli import main
from ncbayes.experiments import _write_csv, _write_outputs
from ncbayes.modelzoo import build_lds_model

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def oracle_fmt(value):
    """The per-value formatting rules of the row writer (reference copy)."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def oracle_csv(header, rows):
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([oracle_fmt(v) for v in row])
    return fh.getvalue()


def column_csv(header, blocks):
    fh = io.StringIO(newline="")
    _write_csv(fh, header, blocks)
    return fh.getvalue()


SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                  5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
                  1.7976931348623157e308, 0.1, 1e16, 1e17, 123456789.0)
VALUES = {
    "float": (st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
              np.float64),
    "int": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
    "uint": (st.integers(0, 2 ** 64 - 1), np.uint64),
    "bool": (st.booleans(), np.bool_),
    "str": (st.one_of(st.just(""),
                      st.from_regex(r"[A-Za-z_][A-Za-z0-9_.\-]{0,8}",
                                    fullmatch=True)),
            np.str_),
}


@st.composite
def tables(draw):
    """(header, columns, cut points) with 1-6 columns of 0-12 rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(VALUES)), min_size=1,
                          max_size=6))
    n = draw(st.integers(0, 12))
    columns = [np.array(draw(st.lists(VALUES[k][0], min_size=n,
                                      max_size=n)), dtype=VALUES[k][1])
               for k in kinds]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    header = tuple(f"{k}_{i}" for i, k in enumerate(kinds))
    return header, columns, cuts


def split(columns, cuts):
    """Blocks of the same rows, cut at ``cuts`` (repeats give empty
    blocks)."""
    edges = [0, *cuts, len(columns[0])]
    return [tuple(c[lo:hi] for c in columns)
            for lo, hi in zip(edges[:-1], edges[1:])]


def rows_of(columns):
    return [tuple(c[r] for c in columns) for r in range(len(columns[0]))]


@SETTINGS
@given(tables())
def test_blocks_write_the_oracle_bytes(table):
    header, columns, cuts = table
    expected = oracle_csv(header, rows_of(columns))
    if len(columns) == 1 and "" in columns[0].tolist():
        # the csv module quotes a row's only field when it is empty
        assert '""' in expected
        with pytest.raises(ValueError):
            column_csv(header, [tuple(columns)])
        return
    assert column_csv(header, [tuple(columns)]) == expected
    assert column_csv(header, split(columns, cuts)) == expected


NAN_PAYLOADS = tuple(np.array([0x7FF8000000000000, 0xFFF8000000000001],
                               dtype=np.uint64).view(np.float64).tolist())
POOLS = {
    "float": (st.lists(st.sampled_from(
        (-0.0, 0.0, float("inf"), float("-inf"), *NAN_PAYLOADS, 0.1, 1.0,
         -2.5, 1e300, 5e-324)), min_size=1, max_size=6), np.float64),
    "int": (st.lists(st.integers(-5, 5), min_size=1, max_size=6), np.int64),
    "uint": (st.lists(st.integers(2 ** 64 - 4, 2 ** 64 - 1), min_size=1,
                      max_size=4), np.uint64),
    "bool": (st.lists(st.booleans(), min_size=1, max_size=2), np.bool_),
    "str": (st.lists(VALUES["str"][0], min_size=1, max_size=4), np.str_),
}


@st.composite
def repeating_tables(draw):
    """(header, columns, cut points) with 1-6 columns of up to 200 rows,
    each column drawn from a small pool so its values repeat."""
    kinds = draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1,
                          max_size=6))
    n = draw(st.integers(1, 200))
    columns = []
    for k in kinds:
        pool = draw(POOLS[k][0])
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                              max_size=n))
        columns.append(np.array([pool[p] for p in picks], dtype=POOLS[k][1]))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    header = tuple(f"{k}_{i}" for i, k in enumerate(kinds))
    return header, columns, cuts


@SETTINGS
@given(repeating_tables())
def test_repeated_values_write_the_oracle_bytes(table):
    header, columns, cuts = table
    if len(columns) == 1 and "" in columns[0].tolist():
        return  # a lone empty field is the quoting case above
    expected = oracle_csv(header, rows_of(columns))
    assert column_csv(header, [tuple(columns)]) == expected
    assert column_csv(header, split(columns, cuts)) == expected


def test_signed_zeros_and_nan_payloads_keep_their_text():
    column = np.array([0.0, -0.0, *NAN_PAYLOADS, -0.0, 0.0])
    assert np.isnan(column[2:4]).all()
    assert column[2:4].view(np.uint64).tolist() != [0x7FF8000000000000] * 2
    assert column_csv(("x",), [(column,)]) == (
        "x\r\n0\r\n-0\r\nnan\r\nnan\r\n-0\r\n0\r\n")


def test_float32_column_writes_the_oracle_bytes():
    column = np.array([0.1, -0.0, 0.1, 3.4e38, np.nan, 0.0, 1e-45, 0.1],
                      dtype=np.float32)
    other = np.arange(column.size)
    expected = oracle_csv(("f", "n"), rows_of([column, other]))
    assert column_csv(("f", "n"), [(column, other)]) == expected
    assert column_csv(("f", "n"), split([column, other], [3, 3, 5])) == expected


def test_no_blocks_writes_the_header_alone():
    header = ("a", "b")
    assert column_csv(header, []) == oracle_csv(header, []) == "a,b\r\n"
    empty = (np.zeros(0), np.zeros(0, dtype=np.int64))
    assert column_csv(header, [empty, empty]) == "a,b\r\n"


@pytest.mark.parametrize("field", ["a,b", 'say "x"', "two\nlines",
                                   "cr\rhere", "\r\n"])
def test_fields_needing_quotes_raise(field, tmp_path):
    bad_column = ((np.array(["ok", field]), np.arange(2)),)
    with pytest.raises(ValueError):
        _write_outputs(tmp_path, ("name", "n"), bad_column, {}, {})
    with pytest.raises(ValueError):
        _write_outputs(tmp_path, ("name", field), [], {}, {})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("block", [
    (np.zeros(3),),
    (np.zeros(3), np.zeros(2)),
    (np.zeros(3), np.zeros((3, 1))),
])
def test_malformed_blocks_raise(block):
    with pytest.raises(ValueError):
        column_csv(("a", "b"), [block])


def test_unsupported_dtype_raises():
    with pytest.raises(TypeError):
        column_csv(("a",), [(np.array([1 + 2j]),)])


def test_failed_write_leaves_the_directory_empty(tmp_path):
    out = tmp_path / "d"
    # numpy integers are not JSON serializable: summary.json fails midway
    with pytest.raises(TypeError):
        _write_outputs(out, ("a",), [], {"n": np.int64(3)}, {})
    assert list(out.iterdir()) == []


class TestCliOutputsMatchOracle:
    def analyze_rows(self, cfg):
        report = lds_correlations(cfg.sigma_x, cfg.sigma_z)
        rows = [("lds", "", "", "", "", cfg.sigma_x, cfg.sigma_z,
                 report.rho_sq_cp, report.rho_sq_dncp, report.prefer_dncp)]
        if cfg.local_factor_given():
            s = LocalFactorSummary(alpha=cfg.alpha, beta=cfg.beta, w=cfg.w,
                                   sigma=cfg.sigma)
            rows.append(("local-factor", cfg.alpha, cfg.beta, cfg.w,
                         cfg.sigma, "", "", cp_squared_correlation(s),
                         dncp_squared_correlation(s),
                         prefer_dncp(cfg.sigma, cfg.beta)))
        return rows

    @pytest.mark.parametrize("text", [
        "",
        "alpha: -1.0\nbeta: -2.0\nw: 0.7\nsigma: 0.4\n",
        "sigma_z: 3\nalpha: -1.0\nbeta: -0.5\nw: -0.2\nsigma: 2.5\n",
    ])
    def test_analyze(self, tmp_path, text):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        assert main(["analyze", "--config", str(path),
                     "--out", str(tmp_path / "r")]) == 0
        cfg = config_mod.analyze_config(config_mod.load_config(path))
        header = ("kind", "alpha", "beta", "w", "sigma", "sigma_x",
                  "sigma_z", "rho2_cp", "rho2_dncp", "prefer_dncp")
        expected = oracle_csv(header, self.analyze_rows(cfg))
        written = (tmp_path / "r" / "results.csv").read_bytes()
        assert written == expected.encode()

    def test_sample(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("model: lds\nparameterization: mix\nsigma_z: 0.1\n"
                        "sampler: {step_size: 0.2, burn_in: 40, "
                        "samples: 120}\n")
        assert main(["sample", "--config", str(path), "--seed", "3",
                     "--out", str(tmp_path / "r")]) == 0
        cfg = config_mod.sample_config(config_mod.load_config(path), 3)
        model = build_lds_model(cfg.sigma_x, cfg.sigma_z)
        draw = graph.ancestral_sample(model, np.zeros(0),
                                      np.random.default_rng(cfg.seed + 12))
        data = {"x1": draw["x1"], "x2": draw["x2"]}
        result = hmc.run_chains(
            model, np.zeros(0), data,
            dataclasses.replace(cfg.sampler, seed=cfg.seed),
            parameterization=cfg.parameterization, mix_rho=cfg.mix_rho)[0]
        rows = [(idx, *result.draws[idx])
                for idx in range(len(result.draws))]
        expected = oracle_csv(("draw", "z1_0", "z2_0"), rows)
        written = (tmp_path / "r" / "results.csv").read_bytes()
        assert written == expected.encode()
