"""A seeded fuzz test of the command line's exit contract.

Every ``tests/data`` problem is mutated (keys dropped, values retyped, table
indices moved out of range, integers made extreme, arrays nested deeply)
and run through every command, and ``--poly``, ``--alpha`` and ``--j`` take
strings drawn from a token pool.  Whatever the input, a command passes the
checks of ``conftest.run_cli`` (one JSON report, empty stderr, exit 0, 1 or
2, a status that follows, a ``schema`` message under ``MESSAGE_LIMIT``
characters) and reports no ``internal`` diagnostic.  A ``schema`` message
reads the same when the problem is written with its keys in their own
order as when they are sorted.

Retyping is drawn from the problem schemas of ``jsonio``: it sets a key
that the table of the problem's kind declares at a node of the problem,
present or not, to a value of some form of the tables (or to one of
``RETYPED``, values of no form), so that declaring a field also fuzzes it.

The verification bounds, a tail's ``depth``, the ``cutoff`` and every table
value and generator stay small (``SMALL``): no work budget caps them yet.
A large bound only makes a correct run slow, and a large value becomes an
exponent of a key polynomial, which the table's ``skp.KeyProducts`` store
builds one factor at a time.
"""

import json
import random

from skpval import jsonio

from conftest import DATA, nested, run_cli, write_problem

PROBLEMS = [json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))]

SEED = 20231
CASES = 3000

SMALL = {"coeff_bound", "degree_bound", "samples", "depth", "cutoff", "rows", "generators"}
VALUE_COMMANDS = ("eval", "initial", "normal-form", "delta")
EXTREME = [10**30, -(10**30), 2**63, 2**61 - 1, -1, 0]
RETYPED = [None, True, False, 1.5, -2.5, "x", "", "inf", "1/0", [], {}, [[]], {"a": 1}]
INDICES = ["9,9", "0,0", "-1,1", "1,-1", "a,b", "1", "", "0,1,2", "1e3,1"]

# ``--poly`` is a few tokens; a large number only ever follows "+", so no
# exponent is large
POLY_TOKENS = [
    "X0", "X1", "X2", "X3", "X10", "X", "x", "(", ")", "+", "-", "*", "^", "^2",
    "^3", "0", "1", "2", "7", "1/2", "-3/4", "1/0", " ", "+100000000000000000000",
]
ALPHAS = [
    "1,1", "1,2", "1,3", "1,1,1", "1,1,2", "1", "", "0,0", "-1,2", "9,9", "a,b",
    "1.5,2", " 1 , 2 ", "1,,2", "100000000000000000000,1",
]
JS = ["1", "2", "3", "0", "-1", "99", "100000000000000000000"]

COMMANDS = [
    ["validate"], ["build"], ["build", "--minimal"], ["classify"], ["realize"],
    ["verify"], ["realize", "--verify", "--samples=3"], ["expand"],
    ["eval"], ["initial"], ["normal-form"], ["delta"],
]


def _nodes(data, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, data
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        for key, value in items:
            yield from _nodes(value, path + (key,))


SCHEMAS = {
    kind: table
    for table in (jsonio.SKP, jsonio.REALIZE, jsonio.CLASSIFY)
    for kind in table.entries["kind"][1].values
}


def _inner(form):
    """The forms that ``form`` holds directly."""
    if isinstance(form, jsonio.Object):
        return [inner for _, inner in form.entries.values()]
    if isinstance(form, jsonio.Array):
        return [form.item]
    return [form.value] if isinstance(form, jsonio.Map) else []


def _values(form):
    """A few values of ``form``: a value of one form is mistyped for most
    others."""
    if isinstance(form, jsonio.Int):
        low = 0 if form.low is None else form.low
        return [low, low + 1] + ([-1] if form.low is None else [])
    if isinstance(form, jsonio.Enum):
        return list(form.values)
    if isinstance(form, jsonio.Array):
        inner = _values(form.item)[0]
        return [[inner] * (form.length or 1)] + ([] if form.length else [[]])
    if isinstance(form, jsonio.Map):
        return [{}, {"1,1": _values(form.value)[0]}]
    if isinstance(form, jsonio.Object):
        return [{}]
    if isinstance(form, jsonio.Field):
        return ["Q", {"prime": 7}]
    if isinstance(form, jsonio.Value):
        return [["2"], "1/3", ["0", "1", "2"]]
    return ["1/2", 3]  # a Rational


def _all_forms(form):
    """``form`` and every form inside it."""
    yield form
    for inner in _inner(form):
        yield from _all_forms(inner)


# every value of every form in the tables, once
DRAWN = list({
    json.dumps(v, sort_keys=True): v
    for table in set(SCHEMAS.values()) for form in _all_forms(table) for v in _values(form)
}.values())


def _fields(form, data, path=()):
    """The key path of every key ``form`` declares at a node of ``data``,
    present or not, and of every item of its arrays and maps."""
    if isinstance(form, jsonio.Object) and isinstance(data, dict):
        for key, (_, inner) in form.entries.items():
            yield path + (key,)
            yield from _fields(inner, data.get(key), path + (key,))
    elif isinstance(form, (jsonio.Array, jsonio.Map)) and isinstance(data, (list, dict)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        for key, value in items:
            yield path + (key,)
            yield from _fields(_inner(form)[0], value, path + (key,))


def _mutate(rng, data, schema):
    """``data`` changed at one random node, or, retyped, at one key the
    ``schema`` declares."""
    data = json.loads(json.dumps(data))
    nodes = list(_nodes(data))
    path, _ = rng.choice(nodes[1:]) if len(nodes) > 1 else nodes[0]
    kind = rng.randrange(6)
    if kind == 1:
        path = rng.choice(list(_fields(schema, data)) or [path])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1] if path else None
    if kind == 0 and path:
        del parent[last]
    elif kind == 1 and path:
        parent[last] = rng.choice(DRAWN + RETYPED)
    elif kind == 2 and path:
        small = SMALL.intersection(path)
        parent[last] = rng.choice([0, 1, 2, -1, 1.0] if small else EXTREME)
    elif kind == 3 and isinstance(parent, dict) and path:
        parent[rng.choice(INDICES)] = parent.pop(last)
    elif kind == 4 and path:
        parent[last] = nested(rng.choice([3, 50, 900, 2000]))
    elif isinstance(data, dict):
        data["x"] = nested(rng.choice([10, 1100, 2000]))
    return data


def _flags(rng, command):
    name = command[0]
    if name in VALUE_COMMANDS or name == "expand":
        poly = "".join(rng.choice(POLY_TOKENS) for _ in range(rng.randint(1, 6)))
        command = command + [f"--poly={poly}"]
        if name == "delta":
            command.append(f"--j={rng.choice(JS)}")
        elif rng.random() < 0.5:
            command.append(f"--alpha={rng.choice(ALPHAS)}")
    return command


def _cases():
    rng = random.Random(SEED)
    for _ in range(CASES):
        data = rng.choice(PROBLEMS)
        schema = SCHEMAS[data["kind"]]
        for _ in range(rng.randint(0, 2)):
            data = _mutate(rng, data, schema)
        yield data, _flags(rng, list(rng.choice(COMMANDS)))


def test_exit_contract_on_mutated_problems(tmp_path):
    for data, command in _cases():
        path = write_problem(tmp_path, data)
        argv = command + (["--skp"] if command[0] in VALUE_COMMANDS else []) + [path]
        try:
            report = run_cli(*argv).report
            assert all(d["kind"] != "internal" for d in report["diagnostics"]), report
            if report["diagnostics"] and report["diagnostics"][0]["kind"] == "schema":
                write_problem(tmp_path, data, sort_keys=False)
                assert run_cli(*argv).report["diagnostics"] == report["diagnostics"]
        except AssertionError as exc:
            raise AssertionError(f"{argv} on {json.dumps(data)[:300]}") from exc
