"""Bound evaluation reports, figure sweeps, comparison scans, verify suites.

Everything here composes the other modules and is responsible for one extra
duty: no row leaves this layer unless the sandwich chains hold on it, so a
CSV produced by the CLI is itself a certificate.  The chains are defined
once, as ``BoundsReport.slacks``, which both the report's own check and the
sandwich verify suite iterate.

The sweeps run as columns from parameters to text: ``fig1_table``,
``fig2_table``, ``fig3_table`` and ``compare_hi_scan`` return column tables
(column name -> the numpy array a kernel computed, or a list where the
column holds text or an empty cell), and ``table_to_csv`` renders any such
table as CSV a block of rows at a time.  Dict rows of Python scalars are
built only on request, by ``table_rows`` (the ``*_rows`` functions and
``CompareHiScan.rows``); ``rows_to_csv`` turns dict rows into a table of
lists for the same writer, so the CSV cell rules exist once.  A float cell
is its ``float.__repr__`` text; an array column gets its cells from one
``orjson.dumps`` call, which writes the same digits several times faster,
with ``repr`` kept for the float cells where orjson's notation differs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bayes import bayes_error, brute_force_bayes_error, error_of_labels
from .entropy import (
    _lower_fm,
    _lower_fm_column,
    _math_map,
    _upper_fm,
    conditional_entropy,
    entropy_columns,
    entropy_of_profile,
    ep_counterexample_check,
    phi,
    posterior_entropies,
)
from .errors import BadParamError, InvariantViolationError
from .families import (
    binomial_profiles,
    comp_hi_stats,
    comp_lo_guaranteed,
    exponential_profiles,
    three_class_profiles,
)
from .model import SIZE_LIMIT, JointModel, PosteriorProfile, integer_at_least, require_at_most, require_classes, validate_joint
from .tv_bounds import (
    _lower,
    _upper,
    _upper_simpl,
    delta,
    delta_of_profile,
    envelope_columns,
    lower_bound,
    separations,
    simplex_grid_oracle,
    upper_bound,
    extremal_high_profile,
    extremal_low_profile,
)

CHAIN_SLACK = 1e-11

# Limit of the scaled ell = k-3 margin as k grows.
COMP_LO_LIMIT = 6.0 - 8.0 * math.log(2.0)


def log10_or_none(value: float):
    """log10 for positive values; nonpositive ones have no finite log."""
    return math.log10(value) if value > 0.0 else None


def chain_slacks(p_star, L, U, U_simpl, L_FM, U_FM) -> tuple:
    """(link, slack) for each link of the two sandwich chains; a negative slack means it is broken.

    Plain arithmetic, so the values may be one report's floats or a sweep's columns.
    """
    return (
        ("L<=p*", p_star - L),
        ("p*<=U", U - p_star),
        ("U<=U_simpl", U_simpl - U),
        ("L_FM<=p*", p_star - L_FM),
        ("p*<=U_FM", U_FM - p_star),
    )


@dataclass(frozen=True)
class BoundsReport:
    """All bound values for one model or profile, checked on construction.

    ``slacks`` lists the five links of the two sandwich chains; a report
    with any link broken by more than CHAIN_SLACK is refused.
    """

    k: int
    delta: float
    entropy_nats: float
    p_star: float
    L: float
    U: float
    U_simpl: float
    L_FM: float
    U_FM: float

    def __post_init__(self):
        for name, slack in self.slacks:
            if slack < -CHAIN_SLACK:
                raise InvariantViolationError(f"{name} violated by {-slack:.3e}")

    @property
    def slacks(self) -> tuple:
        """(link, slack) for each chain link; a negative slack means the link is broken."""
        return chain_slacks(self.p_star, self.L, self.U, self.U_simpl, self.L_FM, self.U_FM)

    @classmethod
    def _evaluate(cls, k: int, d: float, h: float, p_star: float) -> "BoundsReport":
        """Both bound families at separation d and conditional entropy h.

        The arguments are already in domain: k an integer >= 2, d in
        [0, k-1] and h in [0, ln k], as a DeltaValue and an EntropyValue
        hold them.  So each bound is its public function's body alone, and
        nothing is checked or clamped a second time.
        """
        return cls(
            k=k,
            delta=d,
            entropy_nats=h,
            p_star=p_star,
            L=_lower(k, d),
            U=_upper(k, d, math.ceil),
            U_simpl=_upper_simpl(k, d),
            L_FM=_lower_fm(k, h),
            U_FM=_upper_fm(h, math.exp, math.log, math.log1p, math.ceil),
        )

    @classmethod
    def from_model(cls, model: JointModel) -> "BoundsReport":
        return cls._evaluate(
            model.k, delta(model).delta, conditional_entropy(model).h, bayes_error(model)
        )

    @classmethod
    def from_profile(cls, profile: PosteriorProfile) -> "BoundsReport":
        w = profile.a[:, None]
        return cls._evaluate(
            profile.k,
            delta_of_profile(profile).delta,
            entropy_of_profile(profile).h,
            float(error_of_labels(w, w.argmax(axis=0))),
        )

    def as_dict(self) -> dict:
        """The fields in declaration order, then log10 of p* and of each bound."""
        out = dict(vars(self))
        for name in ("p_star", "L", "U", "U_simpl", "L_FM", "U_FM"):
            out[f"log10_{name}"] = log10_or_none(out[name])
        return out


# --- figure sweeps ----------------------------------------------------------
#
# Each sweep evaluates its grid as columns, one array pass per grid.  The
# profile sweeps check both chains on every row; fig1 checks L <= U <= U_simpl.
# Single reports stay on the scalar path above: for one profile an array pass
# costs several times what the scalar one does.


def _check_chain(columns: dict) -> None:
    """Refuse the columns if any chain link is broken by more than CHAIN_SLACK on some row."""
    names = ("p_star", "L", "U", "U_simpl", "L_FM", "U_FM")
    for name, slack in chain_slacks(*(columns[n] for n in names)):
        broken = slack < -CHAIN_SLACK
        if broken.any():
            row = int(np.argmax(broken))
            raise InvariantViolationError(f"{name} violated by {-slack[row]:.3e} at row {row}")


def _profile_columns(k: int, profiles: np.ndarray) -> dict:
    """The fields of BoundsReport.from_profile, as columns, for a (B, k) stack of profiles.

    Each profile is a k x 1 model of the stack w whose one column has unit
    mass, as from_profile takes it.  Each column is clamped once, and each
    bound is the body a report runs; L_FM is _lower_fm_column, one Newton
    pass that gives each row _lower_fm's float.  The chains are checked.
    """
    w = profiles[..., None]
    columns = {
        **envelope_columns(k, separations(w)),
        **entropy_columns(k, posterior_entropies(w, 1.0)),
        "p_star": error_of_labels(w, w.argmax(axis=-2)),
    }
    columns["L_FM"] = _lower_fm_column(k, columns["entropy_nats"])
    _check_chain(columns)
    return columns


def table_rows(table: dict) -> list:
    """Dict rows of Python scalars, in column order, of a column table."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    return [dict(zip(table, row)) for row in zip(*columns)]


def _joined(parts: list):
    """The sweep's column parts end to end; a sweep with no parts has no rows, so an empty list."""
    return np.concatenate(parts) if parts else []


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive grid from lo to hi; lands exactly on hi when step divides."""
    steps = (hi - lo) / step
    require_at_most(steps + 1, SIZE_LIMIT, "grid points")
    count = round(steps)
    if count >= 1 and abs(lo + count * step - hi) <= 1e-9:
        return np.linspace(lo, hi, count + 1)
    pts = np.arange(lo, hi, step)
    return np.append(pts, hi)


def fig1_table(k: int, delta_step: float = 0.01) -> dict:
    """Bound curves (L, U, U_simpl) over the full separation range [0, k-1], as a column table."""
    k = require_classes(k)
    require_at_most(k, SIZE_LIMIT, "classes")
    if not 0.0 < delta_step < math.inf:
        raise BadParamError(f"delta_step={delta_step!r} must be positive and finite")
    columns = envelope_columns(k, _grid(0.0, float(k - 1), delta_step))
    L, U, U_simpl = columns["L"], columns["U"], columns["U_simpl"]
    broken = ~((L <= U + CHAIN_SLACK) & (U <= U_simpl + CHAIN_SLACK))
    if broken.any():
        raise InvariantViolationError(
            f"bound chain broken at delta={float(columns['delta'][np.argmax(broken)])}"
        )
    return columns


def fig1_rows(k: int, delta_step: float = 0.01) -> list:
    """fig1_table as dict rows."""
    return table_rows(fig1_table(k, delta_step))


FIG2_DEFAULT_P = (0.01, 0.1, 0.3, 0.5, 0.6, 0.64)
FIG2_POINTS = 101
FIG2_LOG_COLUMNS = ("L", "U", "U_simpl", "L_FM", "U_FM", "p_star")


def _log10_column(values: np.ndarray):
    """math.log10 of each value: an array, or a list with None for each nonpositive value."""
    if (values > 0.0).all():
        return _math_map(math.log10)(values)
    return [log10_or_none(v) for v in values.tolist()]


def fig2_table(p_list=FIG2_DEFAULT_P, points: int = FIG2_POINTS) -> dict:
    """Three-class log-scale sweep as a column table: for each target error p, scan feasible eps."""
    points = integer_at_least(points, "points", 1)
    p_list = list(p_list)
    require_at_most(len(p_list) * points, SIZE_LIMIT, "rows")
    p_parts, eps_parts = [], []
    for p in p_list:
        lo = max(2.0 * p - 1.0, 0.0)
        hi = p / 2.0
        # at p = 2/3 the feasible range collapses to a point (up to round-off)
        if hi - lo <= 1e-12:
            eps_grid = np.full(1, 0.5 * (lo + hi))
        else:
            eps_grid = np.linspace(lo, hi, points)
        p_parts.append(np.full(eps_grid.size, float(p)))
        eps_parts.append(eps_grid)
    p_column, eps_column = _joined(p_parts), _joined(eps_parts)
    columns = _profile_columns(3, three_class_profiles(p_column, eps_column))
    logs = {f"log10_{name}": _log10_column(columns[name]) for name in FIG2_LOG_COLUMNS}
    return {"p": p_column, "eps": eps_column, **logs}


def fig2_rows(p_list=FIG2_DEFAULT_P, points: int = FIG2_POINTS) -> list:
    """fig2_table as dict rows."""
    return table_rows(fig2_table(p_list, points))


FIG3_DEFAULT_K = (2, 4, 8)
FIG3_COLUMNS = ("delta", "entropy_nats", "p_star", "L", "U", "U_simpl", "L_FM", "U_FM")


def fig3_table(k_list=FIG3_DEFAULT_K, q_step: float = 0.005) -> dict:
    """Binomial and geometric-profile bound sweeps over q in (0, 1/2], as a column table."""
    if not 0.0 < q_step <= 0.5:
        raise BadParamError(f"q_step={q_step!r} must lie in (0, 0.5]")
    q_grid = _grid(q_step, 0.5, q_step)
    k_list = [require_classes(k) for k in k_list]
    require_at_most(2 * len(k_list) * q_grid.size, SIZE_LIMIT, "rows")
    family_column, parts = [], []  # parts: one {name: array} per chunk of rows
    for family in ("binomial", "exponential"):
        for k in k_list:
            if family == "binomial":
                m = int(round(math.log2(k)))
                if 2**m != k:
                    raise BadParamError(f"binomial family needs k a power of 2, got {k}")
                stack = functools.partial(binomial_profiles, m)
            else:
                stack = functools.partial(exponential_profiles, k)
            # stacks of at most SIZE_LIMIT entries keep memory linear in k
            chunk = max(1, SIZE_LIMIT // k)
            for start in range(0, q_grid.size, chunk):
                qs = q_grid[start : start + chunk]
                parts.append({"k": np.full(qs.size, k), "q": qs, **_profile_columns(k, stack(qs))})
            family_column += [family] * q_grid.size
    return {
        "family": family_column,
        **{name: _joined([part[name] for part in parts]) for name in ("k", "q", *FIG3_COLUMNS)},
    }


def fig3_rows(k_list=FIG3_DEFAULT_K, q_step: float = 0.005) -> list:
    """fig3_table as dict rows."""
    return table_rows(fig3_table(k_list, q_step))


# --- comparison scans -------------------------------------------------------


def d_lower_margin(k: int, ell: int) -> float:
    """Signed margin of the separation lower bound over the entropy one.

    For the flat ell-of-k profile the separation bound is (ell-1)/k while
    the entropy bound inverts phi at ln ell, so positivity of
    phi(k, (ell-1)/k) - ln ell is exactly the advantage claim.
    """
    return phi(k, (ell - 1) / k) - math.log(ell)


def compare_lo_rows(k_max: int = 50, k_min: int = 3) -> list:
    """Margins d_k(ell) over every guaranteed (k, ell); all must be positive."""
    k_min = integer_at_least(k_min, "k_min", 3)
    k_max = integer_at_least(k_max, "k_max", k_min)
    # comp_lo_guaranteed gives three support sizes for every k >= 10
    extra = sum(len(comp_lo_guaranteed(k)) - 3 for k in range(k_min, min(k_max, 9) + 1))
    require_at_most(3 * (k_max - k_min + 1) + extra, SIZE_LIMIT, "rows")
    rows = []
    for k in range(k_min, k_max + 1):
        for ell in sorted(comp_lo_guaranteed(k)):
            d = d_lower_margin(k, ell)
            if not d > 0.0:
                raise InvariantViolationError(f"d_{k}({ell}) = {d!r} is not positive")
            row = {"k": k, "ell": ell, "d": d}
            if ell == k - 3:
                row["k_times_d"] = k * d
                row["k_times_d_limit"] = COMP_LO_LIMIT
            else:
                row["k_times_d"] = None
                row["k_times_d_limit"] = None
            rows.append(row)
    return rows


@dataclass(frozen=True)
class CompareHiScan:
    """Scan of the dominant-entry family for where U(delta) beats U_FM(H).

    ``table`` holds the scanned rows as a column table of numpy arrays: k
    (int64), delta, entropy_nats, U and U_FM (float64), and U_exceeds_U_FM
    (bool).  ``rows`` gives them as Python scalars.  Scans compare by nu,
    k_max and crossover_k, which determine the table.
    """

    nu: float
    k_max: int
    crossover_k: int | None
    table: dict = field(compare=False)

    @property
    def rows(self) -> tuple:
        """The table's rows as dicts, built on each request."""
        return tuple(table_rows(self.table))

    def as_dict(self) -> dict:
        return {
            "nu": self.nu,
            "k_max": self.k_max,
            "crossover_k": self.crossover_k,
            "rows": list(self.rows),
        }


def compare_hi_scan(nu: float, k_max: int) -> CompareHiScan:
    """Evaluate U(delta) vs U_FM(H) on the dominant-entry family for each k.

    U(delta) stays at or above 1 - 1/floor(nu) while U_FM(H) decays to 0 as
    k grows, so a crossover must appear; the scan reports the first k where
    it does.  Entropy and separation come from closed forms, evaluated over
    the whole k range as arrays; at most SIZE_LIMIT class counts, none above
    2**53, are scanned.
    """
    if not 1.0 < nu < 2.0**53:
        # from 2**53 on, a class count above nu rounds to nu as a double
        raise BadParamError(f"nu={nu!r} must exceed 1 and lie below 2**53")
    k_start = math.floor(nu) + 1
    k_max = integer_at_least(k_max, "k_max", k_start)
    require_at_most(k_max - k_start + 1, SIZE_LIMIT, "class counts")
    if k_max > 2**53:
        # delta = k - nu is taken in doubles, and above 2**53 not every k is one
        raise BadParamError(f"k_max={k_max!r} must be at most 2**53")
    ks = np.arange(k_start, k_max + 1)
    stats = comp_hi_stats(ks, nu)
    columns = {
        **envelope_columns(ks, stats["delta"]),
        **entropy_columns(ks, stats["entropy_nats"]),
    }
    exceeds = columns["U"] > columns["U_FM"]
    crossover = int(ks[np.argmax(exceeds)]) if exceeds.any() else None
    if nu == 2.0 and k_max >= 10**4 and crossover is None:
        raise InvariantViolationError(
            f"no k <= {k_max} with U > U_FM at nu=2; expected one to exist"
        )
    table = {
        "k": ks,
        "delta": columns["delta"],
        "entropy_nats": columns["entropy_nats"],
        "U": columns["U"],
        "U_FM": columns["U_FM"],
        "U_exceeds_U_FM": exceeds,
    }
    return CompareHiScan(nu=nu, k_max=k_max, crossover_k=crossover, table=table)


# --- verify suites ----------------------------------------------------------


def random_model(rng: np.random.Generator, k: int, n: int) -> JointModel:
    """Uniform positive entries, normalized to unit mass."""
    w = rng.random((k, n))
    return validate_joint(w / w.sum())


def verify_sandwich(count: int = 10000, seed: int = 0) -> dict:
    """Both bound chains on random models; reports the worst slack seen.

    A refused report is raised again with the seed, index, k and n of its model.
    """
    count = integer_at_least(count, "count", 1)
    rng = np.random.default_rng(seed)
    worst = math.inf
    worst_site = None
    for index in range(count):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(1, 7))
        model = random_model(rng, k, n)
        try:
            rep = BoundsReport.from_model(model)
        except InvariantViolationError as exc:
            raise InvariantViolationError(f"sandwich seed {seed}, model {index} (k={k}, n={n}): {exc}") from exc
        for name, slack in rep.slacks:
            if slack < worst:
                worst = slack
                worst_site = name
    return {
        "suite": "sandwich",
        "checked": count,
        "worst_slack": worst,
        "worst_site": worst_site,
        "ok": worst >= -CHAIN_SLACK,
    }


def verify_oracle() -> dict:
    """Exact simplex grids, checked in integers; zero violations required."""
    reports = [simplex_grid_oracle(k, N) for k, N in ((2, 50), (3, 30), (4, 15), (5, 20), (6, 12), (8, 24))]
    return {
        "suite": "oracle",
        "checked": sum(r.checked for r in reports),
        "violations": sum(len(r.violations) for r in reports),
        "grids": [
            {"k": r.k, "N": r.N, "checked": r.checked, "violations": len(r.violations)}
            for r in reports
        ],
        "ok": all(r.ok for r in reports),
    }


def verify_extremal() -> dict:
    """Extremal profiles must reproduce their target separation and bound, for k = 2..8."""
    worst = 0.0
    checked = 0
    for k in range(2, 9):
        for d in _grid(0.0, float(k - 1), 0.01):
            d = float(d)
            low = extremal_low_profile(k, d)
            high = extremal_high_profile(k, d)
            worst = max(
                worst,
                abs(delta_of_profile(low).delta - d),
                abs(delta_of_profile(high).delta - d),
                abs(bayes_error(low.as_model()) - lower_bound(k, d)),
                abs(bayes_error(high.as_model()) - upper_bound(k, d)),
            )
            checked += 2
    return {"suite": "extremal", "checked": checked, "worst_error": worst, "ok": worst <= 1e-12}


def verify_brute_force(count: int = 300, seed: int = 0) -> dict:
    """Closed-form Bayes error against exhaustive classifier enumeration."""
    count = integer_at_least(count, "count", 1)
    rng = np.random.default_rng(seed)
    pairs = [(k, n) for k in range(2, 9) for n in range(1, 7) if k**n <= 10**5]
    worst = 0.0
    for _ in range(count):
        k, n = pairs[int(rng.integers(len(pairs)))]
        model = random_model(rng, k, n)
        worst = max(worst, abs(brute_force_bayes_error(model) - bayes_error(model)))
    return {"suite": "brute_force", "checked": count, "worst_error": worst, "ok": worst <= 1e-12}


def verify_counterexample() -> dict:
    """The published fixture must refute the claimed entropy upper bound."""
    rep = ep_counterexample_check()
    out = rep.to_dict()
    out["suite"] = "counterexample"
    out["ok"] = rep.ok and rep.bound_false
    return out


VERIFY_SUITES = {
    "sandwich": verify_sandwich,
    "oracle": verify_oracle,
    "extremal": verify_extremal,
    "brute_force": verify_brute_force,
    "counterexample": verify_counterexample,
}


def run_verify(suites=None, seed: int = 0, sandwich_count: int = 10000, brute_count: int = 300) -> list:
    """Run the named suites (all by default) and return their result dicts."""
    settings = {
        "sandwich": {"count": sandwich_count, "seed": seed},
        "brute_force": {"count": brute_count, "seed": seed},
    }
    names = list(VERIFY_SUITES) if suites is None else list(suites)
    for name in names:
        if name not in VERIFY_SUITES:
            raise BadParamError(f"unknown verify suite {name!r}")
    return [VERIFY_SUITES[name](**settings.get(name, {})) for name in names]


# --- serialization ----------------------------------------------------------

_BOOL_TEXT = {True: "true", False: "false"}


def _cell(value) -> str:
    """CSV text of one cell: empty for None, true/false for a bool, float repr for a float, else str.

    numpy scalars follow their Python kind: np.bool_ is a bool, and
    np.float64, a float subclass, is written by float.__repr__.
    """
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return _BOOL_TEXT[value]
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


CSV_BLOCK_ROWS = 1024


def _column_cells(column) -> list:
    """_cell of every value in a column: a list cell by cell, a numpy array in one orjson.dumps.

    An array is float64, int64 or bool.  For floats orjson writes the same
    shortest round-trip digits as repr, but in its own notation where
    |x| < 1e-4 or |x| >= 1e16 (0.00001 for 1e-05, 1e16 for 1e+16), and null
    for NaN and inf.  Those cells, zeros apart, are written by repr.
    """
    if not isinstance(column, np.ndarray):
        return list(map(_cell, column))
    import orjson  # here, not at the top: only CSV output needs it

    column = np.ascontiguousarray(column)  # orjson writes C-contiguous arrays only
    cells = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    if column.dtype.kind == "f":
        size = np.abs(column)
        for i in np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (size != 0.0)).tolist():
            cells[i] = float.__repr__(column[i])
    return cells


def table_to_csv(table: dict, header_comments=()) -> str:
    """Render a column table (name -> equal-length list or numpy array) as CSV.

    Rows are rendered a CSV_BLOCK_ROWS block at a time, so that only one
    block's cell strings are alive at once.  A table with no rows renders
    as its header comments alone.
    """
    parts = [f"# {c}" for c in header_comments]
    length = len(next(iter(table.values()), ()))
    if length:
        parts.append(",".join(table))
    for start in range(0, length, CSV_BLOCK_ROWS):
        stop = start + CSV_BLOCK_ROWS
        cells = [_column_cells(column[start:stop]) for column in table.values()]
        parts.append("\n".join(map(",".join, zip(*cells))))
    return "\n".join(parts) + "\n" if parts else ""


def rows_to_csv(rows: list, header_comments=()) -> str:
    """Render dict rows as CSV; columns follow the first row's keys, and a missing cell is empty."""
    columns = rows[0].keys() if rows else ()
    table = {col: [row.get(col) for row in rows] for col in columns}
    return table_to_csv(table, header_comments)


def rows_to_json(rows: list) -> str:
    return json.dumps(rows, indent=2) + "\n"
