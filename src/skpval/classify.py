"""Numerical invariants of table valuations: rank, rational rank, and the
transcendence-degree bookkeeping, plus the three-row lookup table.

Rank is the number of isolated levels achieved by the Q-span of the values
(the convex-subgroup count of the value group inside Q^r under lex order);
rational rank is the dimension of that span.  Inside Q^r under lex order the
two agree: the levels a span reaches are the pivot columns of its echelon,
one per dimension, so rk is read from the running r.rk count, the number of
entries of infinite index.  The transcendence degree is
the number of torus variables: rows not declared infinite whose row-final
entry has a finite index.  Declared-infinite tails are input flags a finite
tool cannot observe, so conclusions that depend on them are conditional on
the declaration.

For valuations on three variables the lookup table matches the arithmetic
of the minimal reduced table against its case list.  Membership predicates
are computed exactly when concrete values are given; they may instead be
declared directly, which is the only way to express the cases that need an
archimedean group of rational rank above one (impossible inside Q^r with
lexicographic order, where the smallest isolated subgroup is a copy of Q).
"""

from .errors import HypothesisViolatedError
from .ordgroup import isolated_level, is_finite_index, rational_rank


class InvariantReport:
    """rk, r.rk, tr.deg with per-row increments and the generator list."""

    def __init__(
        self,
        rk,
        r_rk,
        tr_deg,
        per_row=(),
        semigroup_generators=(),
        table1_row=None,
        matches=(),
        status="ok",
        notes=(),
    ):
        self.rk = rk
        self.r_rk = r_rk
        self.tr_deg = tr_deg
        self.per_row = list(per_row)
        self.semigroup_generators = list(semigroup_generators)
        self.table1_row = table1_row
        self.matches = list(matches)
        self.status = status
        self.notes = list(notes)

    def to_json(self):
        return {
            "rk": self.rk,
            "r_rk": self.r_rk,
            "tr_deg": self.tr_deg,
            "table1_row": self.table1_row,
            "matches": [
                {"row": label, "rk": t[0], "r_rk": t[1], "tr_deg": t[2]}
                for label, t in self.matches
            ],
            "status": self.status,
            "per_row": self.per_row,
            "semigroup_generators": [g.to_json() for g in self.semigroup_generators],
            "notes": self.notes,
        }

    def __repr__(self):
        return (
            f"InvariantReport(rk={self.rk}, r_rk={self.r_rk}, "
            f"tr_deg={self.tr_deg}, status={self.status})"
        )


def abhyankar_check(report, num_vars):
    """rk + tr.deg <= r.rk + tr.deg <= number of variables."""
    return (
        report.rk <= report.r_rk
        and report.r_rk + report.tr_deg <= num_vars
    )


def inductive_invariants(skp, declared_infinite_rows=()):
    """Row-by-row accumulation of the invariants of a built table.

    r.rk is the number of entries of infinite index so far (each leaves the
    Q-span of everything earlier), and rk equals it (module docstring); the
    torus count (= tr.deg) collects rows not declared infinite whose final
    entry has finite index.
    """
    declared = set(declared_infinite_rows)
    per_row = []
    prev_rrk = 0
    torus_rows = []
    for i in range(skp.nvars):
        length = skp.row_length(i)
        if length == 0:
            per_row.append(
                {"row": i, "r_rk": prev_rrk, "rk": prev_rrk, "torus": False}
            )
            continue
        row = [skp.entries[(i, j)] for j in range(1, length + 1)]
        rrk = prev_rrk + sum(1 for e in row if not is_finite_index(e.n))
        in_a = (
            i not in declared
            and is_finite_index(skp.entries[(i, length)].n)
        )
        if in_a:
            torus_rows.append(i)
        per_row.append(
            {
                "row": i,
                "r_rk": rrk,
                "rk": rrk,
                "r_rk_step": rrk - prev_rrk,
                "rk_step": rrk - prev_rrk,
                "torus": in_a,
            }
        )
        prev_rrk = rrk
    notes = []
    if declared:
        notes.append(
            "tr.deg conditional on rows "
            + ", ".join(str(i) for i in sorted(declared))
            + " being declared infinite"
        )
    return InvariantReport(
        prev_rrk,
        prev_rrk,
        len(torus_rows),
        per_row=per_row,
        semigroup_generators=[skp.entries[k].beta for k in skp.order],
        notes=notes,
    )


class RowArithmetic:
    """Finiteness flag and row-final value of one reduced row, finite unless
    declared infinite."""

    __slots__ = ("infinite", "final")

    def __init__(self, infinite=False, final=None):
        if not infinite and final is None:
            raise ValueError("a finite row needs its final value")
        self.infinite = infinite
        self.final = final


class PseudoSkpArithmetic:
    """Input of the three-row lookup: values, or declared predicates.

    With concrete values every membership predicate is computed exactly.
    The ``declared`` dict instead provides: level0, level1, level2 (isolated
    levels of beta01 and the row finals; None for infinite rows),
    in_q1 / in_q2 (final in Q*beta01), span1_in_02 / span2_in_01 (one final
    in the Q-span of beta01 and the other final).
    """

    def __init__(self, beta01=None, rows=(), declared=None):
        self.beta01 = beta01
        self.rows = list(rows)
        self.declared = dict(declared) if declared else None
        if len(self.rows) != 2:
            raise ValueError("the lookup table covers exactly rows 1 and 2")
        if self.declared is None and self.beta01 is None:
            raise ValueError("need either values or declared predicates")
        values = [self.beta01] + [row.final for row in self.rows]
        if len({v.dim for v in values if v is not None}) > 1:
            raise ValueError("beta01 and the row finals differ in dimension")

    def predicates(self):
        if self.declared is not None:
            d = self.declared
            return {
                "level0": d.get("level0", 1),
                "fin1": not self.rows[0].infinite,
                "fin2": not self.rows[1].infinite,
                "level1": d.get("level1"),
                "level2": d.get("level2"),
                "in_q1": d.get("in_q1"),
                "in_q2": d.get("in_q2"),
                "span1_in_02": d.get("span1_in_02"),
                "span2_in_01": d.get("span2_in_01"),
            }
        b0 = self.beta01
        r1, r2 = self.rows
        b1 = None if r1.infinite else r1.final
        b2 = None if r2.infinite else r2.final

        def in_q(x):
            return None if x is None else rational_rank([b0, x]) == 1

        def in_span(x, other):
            if x is None or other is None:
                return None
            return rational_rank([b0, other, x]) == rational_rank([b0, other])

        return {
            "level0": isolated_level(b0),
            "fin1": b1 is not None,
            "fin2": b2 is not None,
            "level1": None if b1 is None else isolated_level(b1),
            "level2": None if b2 is None else isolated_level(b2),
            "in_q1": in_q(b1),
            "in_q2": in_q(b2),
            "span1_in_02": in_span(b1, b2),
            "span2_in_01": in_span(b2, b1),
        }


def _max_final_level(p):
    levels = [l for l in (p["level1"], p["level2"]) if l is not None]
    return max(levels) if levels else None


TABLE1 = [
    (
        "I",
        lambda p: p["fin1"] and p["fin2"] and p["in_q1"] and p["in_q2"],
        (1, 1, 2),
    ),
    (
        "II_1",
        lambda p: p["fin1"]
        and p["fin2"]
        and p["in_q1"]
        and p["level2"] == 1
        and not p["in_q2"],
        (1, 2, 1),
    ),
    (
        "II_2",
        lambda p: p["fin1"]
        and p["fin2"]
        and p["level1"] == 1
        and not p["in_q1"]
        and p["in_q2"],
        (1, 2, 1),
    ),
    (
        "III_1",
        lambda p: not p["fin1"] and p["fin2"] and p["in_q2"],
        (1, 1, 1),
    ),
    (
        "III_2",
        lambda p: p["fin1"] and not p["fin2"] and p["in_q1"],
        (1, 1, 1),
    ),
    (
        "IV",
        lambda p: p["fin1"]
        and p["fin2"]
        and p["level1"] == 1
        and not p["in_q1"]
        and p["level2"] == 1
        and not p["span2_in_01"],
        (1, 3, 0),
    ),
    (
        "V_1",
        lambda p: not p["fin1"]
        and p["fin2"]
        and p["level2"] == 1
        and not p["in_q2"],
        (1, 2, 0),
    ),
    (
        "V_2",
        lambda p: p["fin1"]
        and not p["fin2"]
        and p["level1"] == 1
        and not p["in_q1"],
        (1, 2, 0),
    ),
    (
        "VI",
        lambda p: p["fin1"]
        and p["fin2"]
        and _max_final_level(p) == 2
        and p["span1_in_02"],
        (2, 2, 1),
    ),
    (
        "VII_1",
        lambda p: p["fin1"]
        and p["fin2"]
        and p["level1"] == 2
        and (p["level2"] or 0) > 2,
        (3, 3, 0),
    ),
    (
        "VII_2",
        lambda p: p["fin1"]
        and p["fin2"]
        and p["level2"] == 2
        and (p["level1"] or 0) > 2,
        (3, 3, 0),
    ),
    (
        "VIII_1",
        lambda p: not p["fin1"] and p["fin2"] and p["level2"] == 2,
        (2, 2, 0),
    ),
    (
        "VIII_2",
        lambda p: p["fin1"] and not p["fin2"] and p["level1"] == 2,
        (2, 2, 0),
    ),
    (
        "IX",
        lambda p: p["fin1"]
        and p["fin2"]
        and _max_final_level(p) == 2
        and p["level1"] is not None
        and p["level1"] <= 2
        and not p["span1_in_02"],
        (2, 3, 0),
    ),
    (
        "X",
        lambda p: not p["fin1"] and not p["fin2"],
        (1, 1, 0),
    ),
]


def classify_table1(arith):
    """Match the arithmetic against the case list of the lookup table.

    Returns an InvariantReport with the matched triple; status AMBIGUOUS
    lists every match when several cases apply, UNCLASSIFIED signals a gap.
    Raises HypothesisViolatedError when beta01 is not in the smallest
    isolated subgroup.
    """
    p = arith.predicates()
    if p["level0"] != 1:
        raise HypothesisViolatedError(
            f"beta_0,1 has isolated level {p['level0']}, expected 1"
        )
    matches = [(label, triple) for label, cond, triple in TABLE1 if cond(p)]
    if not matches:
        return InvariantReport(0, 0, 0, status="UNCLASSIFIED")
    if len(matches) > 1:
        label, triple = matches[0]
        return InvariantReport(
            *triple, table1_row=label, matches=matches, status="AMBIGUOUS"
        )
    label, triple = matches[0]
    return InvariantReport(
        *triple, table1_row=label, matches=matches, status="CLASSIFIED"
    )
