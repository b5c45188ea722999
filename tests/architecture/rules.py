"""The architecture rules: one row per concept that has one definition.

A :class:`Rule` scans the modules its ``scope`` matches (``fnmatch``
patterns under ``src/repro``; its ``home``, where the concept lives, is
scanned but never offends) for what it ``forbid``s, as data.
``find(module, forbid)`` gives ``(line, *key)`` per finding, and
``(module, *key)`` is what an allowance or an anchor names.  An
allowance says why it stays and must stay in use; the list may only
shrink.  An anchor must still be there for the rule to see anything:
one of its findings, or a fact of the module (:func:`index.facts`).
Each finder's docstring is its rule's one statement, printed with its
offences; ``planted`` is a snippet whose findings are ``expected``.
"""

import ast
from typing import Callable, NamedTuple

from repro.kernels.specs import KERNEL_NAMES
from repro.runtime import steps as step_table

from .index import (
    find_attribute_stores, find_calls, find_definitions, find_identifiers,
    find_literals, find_loops, find_nodes, name, targets,
)


class Rule(NamedTuple):
    find: Callable
    forbid: dict
    planted: str
    expected: list
    scope: tuple = ("*",)
    home: str = None
    allowed: dict = {}
    anchors: set = frozenset()


def _is(node, identifier="self"):
    return isinstance(node, ast.Name) and node.id == identifier


def _text(node):
    """The string a constant spells, or ``""``."""
    is_text = isinstance(node, ast.Constant) and isinstance(node.value, str)
    return node.value if is_text else ""


def _spelled(node, spell):
    """What an operand, or each element of a tuple/list/set, spells."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return {value for elt in node.elts for value in _spelled(elt, spell)}
    return {spell(node)} - {None, ""}


def _empty_container(node):
    """The constructor of the empty container ``node`` builds, or None."""
    if isinstance(node, ast.Dict) and not node.keys:
        return "dict"
    if isinstance(node, ast.List) and not node.elts:
        return "list"
    if isinstance(node, ast.Call) and not (node.args or node.keywords):
        return name(node.func)
    return None


def derived_fact(module, forbid):
    """Per-dataset facts have one home, ``KernelData.derived``: nothing else
    ``setattr``s or stores a private (not dunder) attribute on anything but
    ``self``, ``getattr``s a ``*_memo`` or binds a module-level name to an
    empty container.  Derive it there, or pass it to the owner's constructor."""
    found = [
        (node.lineno, bound, "module-container")
        for names, node in module.assignments
        if _empty_container(node.value) in forbid["containers"]
        for bound in names
    ]
    memo = tuple(forbid["getattr suffixes"])
    for call, called in module.calls:
        args, where = call.args, (call.lineno, module.function[call])
        if not isinstance(call.func, ast.Name):
            continue
        if called in forbid["calls"] and not (args and _is(args[0])):
            found.append((*where, "setattr"))
        if called == "getattr" and len(args) >= 2 and _text(args[1]).endswith(memo):
            found.append((*where, "getattr-memo"))
    return found + [
        (node.lineno, module.function[node], "private-store")
        for node in find_attribute_stores(module)
        if node.attr.startswith(tuple(forbid["private prefixes"]))
        and not node.attr.endswith("__")
        and not _is(node.value)
    ]


def settings(module, forbid):
    """Environment variables have one reader, ``repro.backends``: nothing
    else uses ``os.environ`` / ``getenv`` / ``putenv`` (as any attribute, or
    imported from ``os``) or spells a ``REPRO_*`` literal.  Declare a
    ``Setting`` there and call ``backends.read()``."""
    names, prefixes = forbid["identifiers"], tuple(forbid["literal prefixes"])
    imports = [n for n in find_nodes(module, ast.ImportFrom) if n.module == "os"]
    return [
        (node.lineno, f"os.{node.attr}")
        for node in find_nodes(module, ast.Attribute)
        if node.attr in names
    ] + [
        (node.lineno, f"os.{alias.name}")
        for node in imports
        for alias in node.names
        if alias.name in names
    ] + [
        (line, f"literal {text.split()[0]!r}")
        for line, text in find_literals(module)
        if text.startswith(prefixes)
    ]


def kernel_definition(module, forbid):
    """Each kernel is defined once, in ``kernels/specs.py``: no dict literal
    but its builders and ``STATEMENT_CODE`` has two kernel names as keys
    (keyed by the name it is bound to, or its line).  Read the fact from
    ``kernel_by_name(...)`` or emit it from the lowered program."""
    bound = {
        id(node.value): names[0]
        for node in find_nodes(module, ast.Assign, ast.AnnAssign)
        if (names := targets(node))
    }
    return [
        (node.lineno, bound.get(id(node), f"line {node.lineno}"))
        for node in find_nodes(module, ast.Dict)
        if len(forbid["keys"] & {_text(key) for key in node.keys if key}) >= 2
    ]


def inspector_loop(module, forbid):
    """No per-node or per-edge Python loop in the guarded inspectors: a
    ``deque``, or a loop over ``range(...)`` or ``.tolist()``, boxes a
    scalar per element.  Sweep with NumPy, or allow it saying what the
    loop (keyed by its variable) counts."""
    return [
        (iterable.lineno, module.function[iterable], ast.unparse(target))
        for target, iterable in find_loops(module)
        if isinstance(iterable, ast.Call)
        and name(iterable.func) in forbid["iterables"]
    ] + [
        (node.lineno, module.function[node], identifier)
        for node, identifier in find_identifiers(module)
        if identifier in forbid["identifiers"]
    ]


def comparison_sort(module, forbid):
    """No comparison sort on the inspector path: no ``x.argsort``,
    ``np.unique``, ``np.sort`` or ``np.lexsort`` in a guarded module.  Sort
    ids below a known bound through ``repro.transforms.sorting``, or allow
    it with a reason."""
    return find_calls(module, forbid["calls"], attribute_only=True)


def stage_loop(module, forbid):
    """Every bind runs its stages through one loop: only
    ``runtime/inspector.py`` builds ``InspectorState``, ``StageRecord`` or
    ``InspectorResult`` (a second loop skips the tiling guard or lets a
    crash escape untyped).  Pass a stage body to ``run_stages`` instead."""
    return [(line, called) for line, _, called in find_calls(module, forbid["calls"])]


def entry_layout(module, forbid):
    """One module knows the plan-cache entry layout, ``plancache/memo.py``:
    no other literal, f-string parts included, spells a key prefix
    (``sf__``, ``tile__``; ``sfl__``, ``delta__`` of the old layout).
    Read the entry through a memo accessor instead."""
    return {
        (line, prefix)
        for line, text in find_literals(module)
        for prefix in forbid["literals"]
        if prefix in text
    }


def loop_order(module, forbid):
    """Every tier runs tiles in ascending id (Figure 14): no identifier
    containing ``wave`` (any case) in the modules that lower, emit, bind,
    verify or interpret the executor, since a wave grouping folds the
    reductions in another order.  Strings are no identifiers."""
    return {
        (node.lineno, identifier)
        for node, identifier in find_identifiers(module)
        if any(part in identifier.lower() for part in forbid["identifiers"])
    }


def _schedule_refs(expr, aliases, suffixes):
    """Names ending in a schedule suffix, or bound from one, in ``expr``
    outside a ``.loops`` read and a ``tile_walk(...)`` call."""
    skip = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "loops":
            skip.update(map(id, ast.walk(node.value)))
        if isinstance(node, ast.Call) and name(node.func) == "tile_walk":
            skip.update(map(id, ast.walk(node)))
    return [
        node
        for node in ast.walk(expr)
        if id(node) not in skip
        and (ref := name(node)) is not None
        and (
            ref.lower().endswith(suffixes)
            or isinstance(node, ast.Name) and ref in aliases
        )
    ]


def tile_walk(module, forbid):
    """Figure 14's order is written once, ``lowering/schedule.py::tile_walk``:
    no other loop iterates anything named ``*schedule`` or assigned from one
    (to a fixpoint), except to read ``.loops``.  Take the tiles from
    ``tile_walk``, or the figures price one order and the tiers run another."""
    suffixes, aliases, grown = tuple(forbid["suffixes"]), set(), True
    while grown:
        found = {
            target
            for node in find_nodes(module, ast.Assign)
            if _schedule_refs(node.value, aliases, suffixes)
            for target in targets(node)
        }
        grown, aliases = not found <= aliases, aliases | found
    return [
        (it.lineno, ast.get_source_segment(module.source, it))
        for _, it in find_loops(module)
        if _schedule_refs(it, aliases, suffixes)
    ]


def tiling_check(module, forbid):
    """Sparse tiling has one type (``TilingFunction``), one edge format
    (``dependence_edges``) and one check (``fst.check_tiling``): nothing
    defines ``verify_tiling``, ``verify_sweep_tiling`` (test oracles now)
    or ``SweepTiling``, and neither ``validate_tiling`` nor
    ``check_tiling`` reads ``.left`` / ``.right``."""
    definitions = find_definitions(module, forbid["definitions"])
    return [(line, f"defines {defined}") for line, defined in definitions] + [
        (node.lineno, f"{check} reads .{node.attr}")
        for node in find_nodes(module, ast.Attribute)
        if node.attr in forbid["attributes"]
        for check in {"validate_tiling", "check_tiling"}
        & set(module.function[node].split("."))
    ]


def one_binder(module, forbid):
    """One bind implementation, one backend selection: ``service/fleet.py``
    builds no dataset and binds (``.bind`` / ``.rebind``) no plan itself, a
    shard binds through ``service/binder.py::LocalBinder``; and
    ``backends.py`` defines no ``resolve``, ``resolve_executor_backend``
    alone selects the executor backend."""
    factories = forbid["plan factories"]
    plans = {
        target
        for node in find_nodes(module, ast.Assign)
        if isinstance(node.value, ast.Call) and name(node.value.func) in factories
        for target in targets(node)
    }

    def is_plan(expr):
        if isinstance(expr, ast.Call):
            return name(expr.func) in factories
        return name(expr) == "plan" or isinstance(expr, ast.Name) and expr.id in plans

    return {
        (line, f"{function} calls {called}")
        for line, function, called in find_calls(module, forbid["calls"])
    } | {
        (call.lineno, f"{module.function[call]} calls plan.{called}")
        for call, called in module.calls
        if called in forbid["plan methods"]
        and isinstance(call.func, ast.Attribute)
        and is_plan(call.func.value)
    } | {
        (line, f"defines {defined}")
        for line, defined in find_definitions(module, forbid["definitions"])
    }


def lazy_hit(module, forbid):
    """A plan-cache hit copies nothing before its executor state is read:
    ``memo.entry_to_result`` widens (``astype``) and gathers
    (``apply_to_data``) only in its ``executor_state`` builder, or every
    hit pays for state its response does not read."""
    return [
        (line, called)
        for line, function, called in find_calls(module, forbid["calls"])
        if (path := function.split("."))[0] == "entry_to_result"
        and path[1:2] != ["executor_state"]
    ]


#: The step table's vocabulary: its classes, stage names and spec types.
STEP_CLASSES = {
    key
    for key, value in vars(step_table).items()
    if isinstance(value, type) and issubclass(value, step_table.Step)
}
STEP_NAMES = {cls.name for cls in step_table.registered()} | set(step_table.STEP_TYPES)


def step_switch(module, forbid):
    """The step table, ``runtime/steps.py``, is the one definition of every
    step: nothing else tests ``isinstance`` against a step class, compares
    with a step-name literal or keys a dict literal by one.  Read the step's
    traits, params, delta or emit, or allow it saying why it is no switch."""
    def names_a_step(node):  # a compare operand or a dict key (None: ``**x``)
        return node is not None and _spelled(node, _text) & STEP_NAMES

    switches = {
        "isinstance": [
            call
            for call, _ in module.calls
            if _is(call.func, "isinstance") and len(call.args) == 2
            and _spelled(call.args[1], name) & STEP_CLASSES
        ],
        "compare": [
            node
            for node in find_nodes(module, ast.Compare)
            if any(map(names_a_step, [node.left, *node.comparators]))
        ],
        "dict": [
            node for node in find_nodes(module, ast.Dict) if any(map(names_a_step, node.keys))
        ],
    }
    return [
        (node.lineno, module.function[node], switch)
        for switch in forbid["switches"]
        for node in switches[switch]
    ]


def file_store(module, forbid):
    """One file store under the cache directory, ``plancache/filestore.py``:
    nothing else in ``plancache/`` or ``lowering/`` calls ``x.rename``,
    ``os.replace``, a temp-file maker, an unlink, an rmdir or a directory
    walk (keyed by its innermost function).  Store it through ``FileStore``."""
    return [
        (call.lineno, module.function[call].rpartition(".")[2], called)
        for call, called in module.calls
        if called in forbid["calls"]
        and isinstance(call.func, ast.Attribute)
        and (called != "replace" or _is(call.func.value, "os"))
    ]


RULES = [
    Rule(
        derived_fact, home="kernels/data.py",
        forbid={
            "calls": {"setattr"}, "getattr suffixes": {"_memo"},
            "private prefixes": {"_"},
            "containers": {"dict", "list", "set", "OrderedDict"},
        },
        allowed={
            ("runtime/faults.py", "__setattr__", "setattr"): "the fault-injection "
            "proxy forwards its own attribute writes to the step it wraps, so "
            "the step sees what it would have set",
            ("kernels/specs.py", "_KERNELS", "module-container"): "one immutable "
            "Kernel IR per kernel name: a fact of the kernel's source, the same "
            "for every dataset",
            ("lowering/executor.py", "_MEMO", "module-container"): "compiled "
            "executors keyed by kernel, backend and code: a program is bound to "
            "arrays per call and keeps none of them",
            ("lowering/toolchain.py", "_VERSION_CACHE", "module-container"): "the "
            "version string of each compiler on the host, read once",
            ("runtime/steps.py", "_BY_NAME", "module-container"): "the step "
            "table: stage name -> step class, filled at import by @register",
            ("runtime/steps.py", "_BY_SPEC_TYPE", "module-container"): "the step "
            "table: plan-spec type -> step class, filled at import by @register",
        },
        planted="""\
def fingerprint(data):
    memo = getattr(data, '_fingerprint_memo', None)
    data._fingerprint_memo = {}
    setattr(data, 'digest', 1)
    data.result = 2
    fn.__marker__ = True
class C:
    def __init__(self):
        self._memo = {}
        setattr(self, 'x', 1)
_VERDICTS: Dict[tuple, bool] = {}
_SEEN = set()
_ORDER = collections.OrderedDict()
_A = _B = []
TABLE = {'moldyn': 1}
NAMES = dict(a=1)
_generation = 0""",
        expected=[
            (2, "fingerprint", "getattr-memo"), (3, "fingerprint", "private-store"),
            (4, "fingerprint", "setattr"), (11, "_VERDICTS", "module-container"),
            (12, "_SEEN", "module-container"), (13, "_ORDER", "module-container"),
            (14, "_A", "module-container"), (14, "_B", "module-container"),
        ],
    ),
    Rule(
        settings, home="backends.py",
        forbid={
            "identifiers": {"environ", "getenv", "putenv"},
            "literal prefixes": {"REPRO_"},
        },
        planted="""\
import os
from os import getenv
NAME = 'REPRO_KNOB'
def knob():
    os.putenv(NAME, '1')
    return os.environ.get(f'REPRO_{NAME}') or getenv(NAME)
HINT = 'set REPRO_KNOB=1'""",
        expected=[
            (2, "os.getenv"), (3, "literal 'REPRO_KNOB'"), (5, "os.putenv"),
            (6, "literal 'REPRO_'"), (6, "os.environ"),
        ],
    ),
    Rule(
        kernel_definition,
        forbid={"keys": set(KERNEL_NAMES)},
        anchors={("kernels/specs.py", "_BUILDERS"), ("kernels/specs.py", "STATEMENT_CODE")},
        allowed={
            ("eval/experiments.py", "BENCHMARK_DATASETS"): "which datasets the "
            "paper's figures pair with each benchmark: a choice of the "
            "evaluation, not a fact of the kernel",
        },
        planted="""\
LOOPS = {'moldyn': 3, 'nbf': 2}
BYTES: dict = {'irreg': 16, 'nbf': 32, 'other': 0}
ONE = {'moldyn': 1}
def f():
    return {'moldyn': 1, 'irreg': 2}""",
        expected=[(1, "LOOPS"), (2, "BYTES"), (5, "line 5")],
    ),
    Rule(
        inspector_loop, scope=("transforms/gpart.py",),
        forbid={"identifiers": {"deque"}, "iterables": {"range", "tolist"}},
        allowed={
            ("transforms/gpart.py", "_adjacency_from_access_map", "w"): "the "
            "distinct row widths of a ragged access map (fewer than "
            "sqrt(2 * len(locations)) of them), each one vectorised pass over "
            "the rows of that width",
        },
        planted="""\
from collections import deque
import collections
def f(xs, n):
    q = collections.deque()
    for i in range(n):
        q.append(i)
    ys = [x + 1 for x in xs.tolist()]
    for x in xs:
        pass
    return {k: v for k, v in zip(xs, ys)}""",
        expected=[
            (1, "<module>", "deque"), (4, "f", "deque"), (5, "f", "i"), (7, "f", "x"),
        ],
    ),
    Rule(
        comparison_sort,
        scope=(
            "transforms/sorting.py", "transforms/cpack.py", "transforms/lexgroup.py",
            "transforms/bucket_tiling.py", "transforms/tilepack.py",
            "transforms/gpart.py", "transforms/parallel.py", "transforms/fst_sweeps.py",
            "transforms/tile_schedule.py", "runtime/validate.py",
            "lowering/schedule.py", "kernels/datasets.py",
        ),
        forbid={"calls": {"argsort", "unique", "sort", "lexsort"}},
        allowed={
            ("transforms/sorting.py", "_radix_argsort", "argsort"): "the "
            "per-digit pass of the radix sort itself: NumPy's stable sort of "
            "uint16 keys is a counting sort",
            ("transforms/sorting.py", "distinct_edges", "sort"): "packed src * n "
            "+ dst keys reach n ** 2: more 16-bit digit passes than np.sort "
            "costs, and the values are wanted, not the order",
            ("transforms/lexgroup.py", "lexsort", "lexsort"): "a genuine "
            "multi-key sort: one key per touched location, as many keys as the "
            "widest row",
        },
        planted="""\
import numpy as np
def f(x):
    y = np.unique(x)
    return x.argsort(kind='stable'), np.sort(y)
def g(x, y):
    return np.lexsort((x, y))""",
        expected=[
            (3, "f", "unique"), (4, "f", "argsort"), (4, "f", "sort"), (6, "g", "lexsort"),
        ],
    ),
    Rule(
        stage_loop, home="runtime/inspector.py",
        forbid={"calls": {"InspectorState", "StageRecord", "InspectorResult"}},
        anchors={
            ("runtime/inspector.py", built)
            for built in ("InspectorState", "StageRecord", "InspectorResult")
        },
        allowed={
            ("plancache/memo.py", "InspectorResult"): "a warm hit rehydrates a "
            "stored result: no stage runs, so no inspector state or stage record "
            "is built",
        },
        planted="""\
from repro.runtime import inspector
from repro.runtime.report import StageRecord
def replay(data):
    state = inspector.InspectorState(data=data)
    record = StageRecord(0, 'fst', 'ok')
    return inspector.InspectorResult, state, record
InspectorResult = None
def rehydrate(entry):
    return inspector.InspectorResult(entry)""",
        expected=[(4, "InspectorState"), (5, "StageRecord"), (9, "InspectorResult")],
    ),
    Rule(
        entry_layout, home="plancache/memo.py",
        forbid={"literals": {"sf__", "sfl__", "tile__", "delta__"}},
        anchors={("plancache/memo.py", "sf__"), ("plancache/memo.py", "tile__")},
        planted="""\
def parent_function(entry, step, index):
    key = f'sf__{step.name}{index}'
    tiles = entry.arrays['tile__' + str(index)]
    return entry.arrays.get(key), tiles, 'delta_sf_tile'
OLD_LAYOUT = ('sfl__0', f'delta__{0}')""",
        expected=[(2, "sf__"), (3, "tile__"), (5, "delta__"), (5, "sfl__")],
    ),
    Rule(
        loop_order,
        scope=(
            "lowering/emit_c.py", "lowering/emit_numpy.py", "lowering/executor.py",
            "lowering/passes.py", "lowering/ir.py", "analysis/irverify.py",
            "runtime/symbolic_executor.py",
        ),
        forbid={"identifiers": {"wave"}},
        planted="""\
from repro.transforms.parallel import tile_wavefronts as tw
GUARD_WAVES = 100
def run(schedule, wave_groups=None, *, label='wave'):
    # waves in a comment are not an identifier
    return schedule.waves, dict(num_waves=1), label""",
        expected=[
            (1, "tile_wavefronts"), (2, "GUARD_WAVES"), (3, "wave_groups"),
            (5, "num_waves"), (5, "waves"),
        ],
    ),
    Rule(
        tile_walk, home="lowering/schedule.py",
        forbid={"suffixes": {"schedule"}},
        planted="""\
def trace(plan, result, inst, tiling):
    for tile in plan.schedule:
        pass
    order = [t for t, tile in enumerate(result.plan.schedule)]
    tiles = inst.schedule
    for tile in tiles:
        pass
    for tile in tiling.schedule():
        pass
    return order
def allowed(schedule, w):
    for loop in schedule.loops:
        pass
    for t, pos, iters in tile_walk(schedule, 2):
        pass
    w.block('for tile in schedule:')""",
        expected=[
            (2, "plan.schedule"), (4, "enumerate(result.plan.schedule)"),
            (6, "tiles"), (8, "tiling.schedule()"),
        ],
    ),
    Rule(
        tiling_check,
        forbid={
            "definitions": {"verify_tiling", "verify_sweep_tiling", "SweepTiling"},
            "attributes": {"left", "right"},
        },
        anchors={
            ("transforms/fst.py", "defines", "check_tiling"),
            ("runtime/inspector.py", "defines", "validate_tiling"),
        },
        planted="""\
class SweepTiling:
    pass
def verify_tiling(tiling, edges):
    return True
def validate_tiling(state, stage):
    theta = state.tiling.tiles[0][state.data.left]
def check_tiling(tiling, sizes, edges, stage):
    return edges, tiling.right
def dependence_edges(data):
    return data.left, data.right
def verify_sweep_tiling(tiling, edges):
    return True""",
        expected=[
            (1, "defines SweepTiling"), (3, "defines verify_tiling"),
            (6, "validate_tiling reads .left"), (8, "check_tiling reads .right"),
            (11, "defines verify_sweep_tiling"),
        ],
    ),
    Rule(
        one_binder, scope=("service/fleet.py", "backends.py"),
        forbid={
            "calls": {"make_kernel_data", "generate_dataset"},
            "plan factories": {"plan_from_spec", "CompositionPlan"},
            "plan methods": {"bind", "rebind"}, "definitions": {"resolve"},
        },
        anchors={
            ("service/fleet.py", "calls", "_fleet_worker_main", "LocalBinder"),
            ("lowering/executor.py", "defines", "resolve_executor_backend"),
        },
        planted="""\
def _fleet_worker_main(message, handles, flight):
    data = make_kernel_data('moldyn', generate_dataset('mol1'))
    spec_plan = plan_from_spec(message['spec'])
    spec_plan.bind(data)
    flight.plan.rebind(data, message['delta'], cache=None)
    plan_from_spec(message['spec']).bind(data)
    binder.bind(message['request'], plan_from_spec(message['spec']))
def resolve(requested, *, subsystem):
    return requested
def shard(data, steps):
    CompositionPlan(steps).bind(data)""",
        expected=[
            (2, "_fleet_worker_main calls generate_dataset"),
            (2, "_fleet_worker_main calls make_kernel_data"),
            (4, "_fleet_worker_main calls plan.bind"),
            (5, "_fleet_worker_main calls plan.rebind"),
            (6, "_fleet_worker_main calls plan.bind"),
            (8, "defines resolve"), (11, "shard calls plan.bind"),
        ],
    ),
    Rule(
        lazy_hit, scope=("plancache/memo.py",),
        forbid={"calls": {"astype", "apply_to_data"}},
        anchors={("plancache/memo.py", "defines", "entry_to_result.executor_state")},
        planted="""\
def entry_to_result(entry, data):
    left = entry.arrays['left'].astype(np.int64)
    def executor_state():
        return sigma.apply_to_data(data.arrays['x']).astype(float)
    check = lambda: sigma.apply_to_data(data.arrays['x'])
    return left""",
        expected=[(2, "astype"), (5, "apply_to_data")],
    ),
    Rule(
        step_switch, home="runtime/steps.py",
        forbid={"switches": {"isinstance", "compare", "dict"}},
        allowed={
            ("eval/compositions.py", "<module>", "dict"): "keys are the paper's "
            "composition names (Figure 6 labels such as 'cpack' and "
            "'cpack+fst'), which name step lists, not steps",
        },
        planted="""\
TABLE = {'lexgroup': 1}
def f(step):
    if isinstance(step, (CPackStep, m.GPartStep)):
        return step.name == 'cpack'
    return step.name in ('lg', 'ls') or step.kind == 'data'""",
        expected=[
            (1, "<module>", "dict"), (3, "f", "isinstance"), (4, "f", "compare"),
            (5, "f", "compare"),
        ],
    ),
    Rule(
        file_store, scope=("plancache/*.py", "lowering/*.py"),
        forbid={
            "calls": {
                "replace", "rename", "mkstemp", "unlink", "rmdir",
                "scandir", "glob", "iterdir", "listdir", "walk",
            },
        },
        allowed={
            ("plancache/filestore.py", "move", "replace"): "the file store's one "
            "commit: a finished tmp file replaces its final name",
            ("plancache/filestore.py", "remove", "unlink"): "the file store's one "
            "removal of a file",
            ("plancache/filestore.py", "remove", "rmdir"): "the file store's one "
            "prune of an emptied shard directory",
            ("plancache/filestore.py", "writable", "unlink"): "the writability "
            "probe unlinks its own probe",
            ("plancache/filestore.py", "entries", "scandir"): "the file store's "
            "one directory walk",
        },
        planted="""\
import os, tempfile
def put(path, text):
    fd, tmp = tempfile.mkstemp(dir=path.parent)
    os.replace(tmp, path)
    return text.replace('a', 'b')
def clear(root):
    for p in root.iterdir():
        p.unlink()
def sweep(root, path):
    os.rename(path, root / 'old')
    os.rmdir(root)
    with os.scandir(root) as it:
        return root.glob('*'), os.listdir(root), os.walk(root)""",
        expected=[
            (3, "put", "mkstemp"), (4, "put", "replace"), (7, "clear", "iterdir"),
            (8, "clear", "unlink"), (10, "sweep", "rename"), (11, "sweep", "rmdir"),
            (12, "sweep", "scandir"), (13, "sweep", "glob"), (13, "sweep", "listdir"),
            (13, "sweep", "walk"),
        ],
    ),
]
