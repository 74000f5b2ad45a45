"""The doubly indexed value family beta_{i,j} and its derived arithmetic.

Entries are indexed by (i, j): variable row i >= 0 and 1-based position j,
ordered lexicographically.  ``compute_relations`` annotates every entry with
its subgroup index n_{i,j}, its canonical relation over strictly earlier
entries, and its negative support S^c.  ``TableEntry`` and ``ValueTable``
are the one record per position and per table: ``skp.SkpEntry`` and
``skp.SkpTable`` extend them with the key polynomials.  ``validate_table``
checks the growth, interior-finiteness, limit-monotonicity, and positivity
conditions and accumulates the outcome into a report instead of raising.
"""

from operator import add

from . import ordgroup
from .ordgroup import GroupValue, is_finite_index


class TableEntry:
    """One value beta_{i,j} with its derived data."""

    __slots__ = ("index", "beta", "n", "relation", "s_neg", "limit_label")

    def __init__(self, index, beta, n, relation, limit_label=None):
        self.index = index
        self.beta = beta
        self.n = n
        # relation maps earlier TableIndex -> nonzero integer coefficient
        self.relation = dict(relation)
        self.s_neg = frozenset(k for k, m in self.relation.items() if m < 0)
        self.limit_label = limit_label

    def __repr__(self):
        n = ordgroup.format_index(self.n)
        return f"TableEntry({self.index}, beta={self.beta}, n={n})"


class ValueTable:
    """Rows of values with per-entry indices, relations, and supports;
    ``nvars`` is the number of rows, one per variable.  ``chain`` is the
    analyzed chain of the values in table order: ``chain.rows[k]`` is the
    integer row of the entry at ``order[k]``, and ``position`` maps each
    index to its k."""

    def __init__(self, chain, rows, entries, limit_labels):
        self.chain = chain
        self.dimension = chain[0].value.dim
        self.rows = rows                      # list of lists of GroupValue
        self.entries = entries                # TableIndex -> TableEntry
        self.limit_labels = dict(limit_labels)
        self.order = sorted(entries)          # lex order on (i, j)
        self.position = {index: k for k, index in enumerate(self.order)}
        self.nvars = len(rows)

    def row_length(self, i):
        return len(self.rows[i])

    def row_lengths(self):
        return tuple(len(r) for r in self.rows)

    def is_row_final(self, index):
        i, j = index
        return j == len(self.rows[i])

    def __repr__(self):
        rows = "; ".join(
            "(" + ", ".join(str(b) for b in row) + ")" for row in self.rows
        )
        return f"ValueTable[{rows}]"


def compute_relations(raw_rows, limit_labels=None):
    """Annotate raw rows of values with n, relation, S, and S^c per entry.

    ``raw_rows`` is a list (one item per row i = 0, 1, ...) of sequences of
    values of one dimension; scalars are accepted for dimension-1 problems.
    Rows may be empty (structural problems are reported by
    ``validate_table``, not here).
    ``limit_labels`` maps (i, j) to the ordinal block count the entry stands
    for in an unrolled table.
    """
    if not raw_rows or all(len(r) == 0 for r in raw_rows):
        raise ValueError("table needs at least one value")
    chain = ordgroup.analyze_chain([v for row in raw_rows for v in row])
    return table_from_chain(chain, [len(row) for row in raw_rows], limit_labels)


def table_from_chain(chain, row_lengths, limit_labels=None):
    """The table whose entries, read row by row, are the analyzed chain.

    Row i takes the next ``row_lengths[i]`` chain entries, so the table's
    lex order on (i, j) is the chain order and every position of a chain
    relation maps to the index of that entry.
    """
    index_order = [(i, j) for i, ln in enumerate(row_lengths) for j in range(1, ln + 1)]
    limit_labels = {tuple(k): v for k, v in (limit_labels or {}).items()}
    rows = [[] for _ in row_lengths]
    entries = {}
    for index, ce in zip(index_order, chain):
        rows[index[0]].append(ce.value)
        relation = {index_order[p]: m for p, m in ce.relation.items()}
        entries[index] = TableEntry(
            index, ce.value, ce.n, relation, limit_labels.get(index)
        )
    return ValueTable(chain, rows, entries, limit_labels)


class ValidationCheck:
    """Outcome of a single condition at a single entry."""

    __slots__ = ("index", "check", "ok", "detail")

    def __init__(self, index, check, ok, detail=""):
        self.index = index
        self.check = check
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        mark = "ok" if self.ok else "FAIL"
        return f"[{mark}] {self.index} {self.check}: {self.detail}"


class ValidationReport:
    """All per-entry condition outcomes of a table."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.ok]

    def failures_of(self, check):
        return [c for c in self.failures if c.check == check]

    @property
    def is_sequence_of_prevalues(self):
        return not any(
            c
            for c in self.failures
            if c.check in ("interior-finite", "increasing", "limit-monotone")
        )

    @property
    def is_sequence_of_values(self):
        return self.is_sequence_of_prevalues and not self.failures_of("positive")

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {
            "ok": self.ok,
            "sequence_of_prevalues": self.is_sequence_of_prevalues,
            "sequence_of_values": self.is_sequence_of_values,
            "checks": [
                {
                    "index": f"{c.index[0]},{c.index[1]}",
                    "check": c.check,
                    "ok": c.ok,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def __repr__(self):
        return "\n".join(repr(c) for c in self.checks)


def validate_table(table):
    """Check every entry against the table conditions.

    Per entry: interior entries must have finite index n; successive entries
    must satisfy beta_{i,j+1} > n_{i,j} * beta_{i,j} when n_{i,j} is finite;
    limit-labeled entries must dominate their materialized predecessors in
    the row (flagged "truncated-limit" since the tail is not materialized);
    and for the table to be a sequence of values every value must be > 0
    and its canonical relation must have no negative coefficients (S^c
    empty).
    """
    checks = []
    zero = GroupValue((0,) * table.dimension)
    for index in table.order:
        entry = table.entries[index]
        i, j = index
        final = table.is_row_final(index)
        if not final:
            ok = is_finite_index(entry.n)
            checks.append(
                ValidationCheck(
                    index,
                    "interior-finite",
                    ok,
                    "interior entry has n = inf" if not ok else f"n = {entry.n}",
                )
            )
            nxt = table.entries[(i, j + 1)]
            if is_finite_index(entry.n):
                bound = entry.beta.scale(entry.n)
                ok = nxt.beta > bound
                checks.append(
                    ValidationCheck(
                        index,
                        "increasing",
                        ok,
                        f"beta_{i},{j + 1} = {nxt.beta} vs "
                        f"{entry.n}*beta_{i},{j} = {bound}",
                    )
                )
        if entry.limit_label is not None:
            preds = [table.entries[(i, j2)].beta for j2 in range(1, j)]
            ok = all(entry.beta > p for p in preds)
            checks.append(
                ValidationCheck(
                    index,
                    "limit-monotone",
                    ok,
                    "truncated-limit: checked against materialized "
                    "predecessors only",
                )
            )
        problems = [] if entry.beta > zero else [f"beta = {entry.beta} is not > 0"]
        if entry.s_neg:
            problems.append(
                "negative coefficients at "
                + ", ".join(f"{a},{b}" for a, b in sorted(entry.s_neg))
            )
        checks.append(
            ValidationCheck(index, "positive", not problems, "; ".join(problems))
        )
    return ValidationReport(checks)


def enumerate_semigroup(chain, coeff_bound):
    """Semigroup ball of an analyzed chain's values: all sums a_1 v_1 + ...
    with a_i >= 0 and sum a_i <= coeff_bound, as (integer row, coefficient
    tuple) pairs sorted by row, one witness per distinct value (the first
    combination found).  The sums run over ``chain.rows``, which order and
    compare as the values do; ``chain.value`` gives back a value.
    """
    rows = chain.rows
    if not rows:
        return []
    found = {}

    def rec(pos, budget, acc, witness):
        if pos == len(rows):
            if acc not in found:
                found[acc] = tuple(witness)
            return
        row = rows[pos]
        for a in range(budget + 1):
            witness.append(a)
            rec(pos + 1, budget - a, acc, witness)
            witness.pop()
            acc = tuple(map(add, acc, row))

    rec(0, coeff_bound, (0,) * len(rows[0]), [])
    return sorted(found.items())
