"""Source hygiene checks that need no linter: every name a module imports is
used in that module (``__init__.py`` is skipped, because its imports are the
package's re-exports), and every module-level function or class is used by
some package code other than itself, or read by the benchmark as
``wd.<name>``; every method or property of such a class is read as an
attribute by package or benchmark code outside its own body. A re-export
in ``__init__.py`` is no use: it keeps a name public, not alive. Every
file under ``tests/data`` is named in some test module, so that a fixture
is not left behind by the code that read it.
Every lookup site the benchmark's tracer patches exists, so that a
refactor can neither crash a traced run nor silently zero its span, a
traced training run counts its graphs before ``backward`` consumes them,
and traced scoring gives what untraced scoring does.
No module but ``autodiff`` assigns a tensor's graph record, so every op
records itself through ``autodiff._node``, and ``autodiff`` itself defines
one op, which ``model`` does not import. Only ``model`` and ``training``
import the ``nn`` layers, which trust their caller's shapes. A training
step's graph holds a known number of nodes, so any change to its size is a
deliberate one. Every class that checks its fields in ``__post_init__`` is
a frozen dataclass, and a frozen dataclass that holds an array compares by
identity. The package's public names are pinned, so that adding or
dropping one is a deliberate change."""

import ast
import importlib.util
import inspect
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import wavedetect
from wavedetect.autodiff import Tensor
from wavedetect.model import ModelConfig, WaveletAutoencoder
from wavedetect.nn import reconstruction_loss, supervised_loss
from wavedetect.optim import Adam
from wavedetect.synth import GeneratorConfig, synth_generate
from wavedetect.training import TrainConfig

SOURCES = sorted(Path(wavedetect.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
BENCH_DIR = Path(__file__).parent.parent / "bench"
BENCH = sorted(BENCH_DIR.glob("*.py"))
TESTS = Path(__file__).parent


def imported_names(tree):
    """{bound name: line} of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree, imports=False):
    """Every name the module loads, including those inside string
    annotations; with ``imports``, also every name it imports with
    ``from ... import``. An attribute read does not count: ``np.tanh``
    is no use of a package ``tanh``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif imports and isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def test_modules_found():
    assert {"nn.py", "model.py", "streaming.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def bench_reads(paths):
    """Every ``<name>`` the benchmark reads off the package as ``wd.<name>``."""
    reads = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "wd":
                reads.add(node.attr)
    return reads


def attribute_reads(tree) -> Counter:
    """How often the tree reads each attribute name, as ``<expr>.<name>``."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def test_every_definition_is_used_by_the_package():
    """A module-level function or class is used when package code outside
    it names it; a method or property, other than a dunder, when package or
    benchmark code outside its own body reads an attribute of its name."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    used = {name: used_names(tree, imports=True) for name, tree in trees.items()}
    bench = bench_reads(BENCH)
    reads = Counter()
    for tree in [*trees.values(), *(ast.parse(path.read_text()) for path in BENCH)]:
        reads += attribute_reads(tree)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # The defining module counts without the definition's own body.
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            users = [names for other, names in used.items() if other != name] + [bench]
            if not any(node.name in names for names in users + [used_names(rest, imports=True)]):
                dead.append(f"{name}:{node.lineno} {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("__")
                        and reads[method.name] == attribute_reads(method)[method.name]):
                    dead.append(f"{name}:{method.lineno} {node.name}.{method.name}")
    assert not dead, f"definitions no package code uses: {dead}"


# The graph record of a ``Tensor``; a leaf sets ``requires_grad`` through the constructor.
GRAPH_SLOTS = {"requires_grad", "_parents", "_vjp"}
NOT_AUTODIFF = [p for p in MODULES if p.name != "autodiff.py"]


@pytest.mark.parametrize("path", NOT_AUTODIFF, ids=[p.name for p in NOT_AUTODIFF])
def test_only_autodiff_writes_graph_slots(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    writes = [f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr in GRAPH_SLOTS]
    assert not writes, f"{path.name} writes a tensor's graph record by hand; return autodiff._node instead: {writes}"


def test_autodiff_defines_no_op_and_a_tensor_cannot_be_indexed():
    """No module-level function of ``autodiff`` returns ``_node(...)``, and
    a ``Tensor`` has no ``__getitem__``. Layers with their activations,
    losses, sums, products, slices and the sigmoid are ops of ``nn``;
    adding a generic op is a deliberate change to this check. The model
    imports only ``Tensor`` from ``autodiff``: it builds its graph from
    ``nn`` layers alone."""
    path = next(p for p in MODULES if p.name == "autodiff.py")
    ops = {node.name for node in ast.parse(path.read_text(), filename=str(path)).body
           if isinstance(node, ast.FunctionDef)
           and any(isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call)
                   and isinstance(ret.value.func, ast.Name) and ret.value.func.id == "_node"
                   for ret in ast.walk(node))}
    assert ops == set()
    assert not hasattr(Tensor, "__getitem__")
    path = next(p for p in MODULES if p.name == "model.py")
    imported = [alias.name for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.ImportFrom) and node.module == "autodiff" for alias in node.names]
    assert imported == ["Tensor"]


def nn_importers(paths) -> set:
    """The stems of the files that import ``nn`` or a name from it."""
    def imports_nn(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "wavedetect.nn" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module in ("nn", "wavedetect.nn")
                    or node.module in (None, "wavedetect") and any(alias.name == "nn" for alias in node.names))
        return False

    return {path.stem for path in paths
            if any(map(imports_nn, ast.walk(ast.parse(path.read_text(), filename=str(path)))))}


def test_only_the_model_and_training_call_the_nn_layers():
    """The ``nn`` layers check no shape: ``ModelConfig`` and the model's
    public passes have checked all they receive. A new caller of a layer,
    in the package or the benchmark, must check its inputs first, and
    widen this set on purpose."""
    assert nn_importers([*SOURCES, *BENCH]) == {"model", "training"}


def _dataclass_with(decorator, flag: str, value: bool) -> bool:
    """Whether ``decorator`` is ``@dataclass(...)`` given ``flag=value``."""
    return (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "dataclass"
            and any(k.arg == flag and isinstance(k.value, ast.Constant) and k.value.value is value
                    for k in decorator.keywords))


def test_every_class_that_checks_its_fields_is_a_frozen_dataclass():
    """A class whose ``__post_init__`` checks its fields is decorated
    ``@dataclass(frozen=True)``, so its checks hold for its whole life: a
    field cannot be assigned, and ``dataclasses.replace`` checks the copy."""
    mutable = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ClassDef)
                    and any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__" for f in node.body)
                    and not any(_dataclass_with(d, "frozen", True) for d in node.decorator_list)):
                mutable.append(f"{path.name}:{node.lineno} {node.name}")
    assert not mutable, f"classes that check their fields but can be changed after: {mutable}"


def test_every_frozen_dataclass_that_holds_an_array_compares_by_identity():
    """A frozen dataclass with a field annotated ``np.ndarray`` declares
    ``eq=False``. The ``__eq__`` and ``__hash__`` that ``dataclass``
    generates otherwise compare and hash the tuple of its fields, so ``==``
    and ``in`` raise a bare ``ValueError`` and ``hash`` a bare ``TypeError``."""
    generated = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ClassDef)
                    and any(_dataclass_with(d, "frozen", True) for d in node.decorator_list)
                    and any(isinstance(f, ast.AnnAssign) and "ndarray" in ast.unparse(f.annotation)
                            for f in node.body)
                    and not any(_dataclass_with(d, "eq", False) for d in node.decorator_list)):
                generated.append(f"{path.name}:{node.lineno} {node.name}")
    assert not generated, f"frozen dataclasses that hold an array but compare their fields: {generated}"


# ``wavedetect``'s public names, modules aside. Adding or dropping one is a
# change to the package's API: update this list on purpose.
PUBLIC_NAMES = [
    "AnomalyRanges", "BlockRow", "CapabilityError", "ConfigError", "ContractError", "ConvLayer", "DataError",
    "Detector", "Fragment", "GeneratorConfig", "IngestError", "MetricsReport", "ModelConfig", "MultiSeries",
    "ShapeError", "Tensor", "TrainConfig", "VoteConfig", "VoteState", "WaveDetectError", "WaveletAutoencoder",
    "evaluate_fragments", "load_detector", "load_ranges", "load_signals", "make_fragments", "mdwd",
    "save_detector", "save_ranges", "save_signals", "score_windows", "simulate", "sweep", "synth_generate", "train",
]


def test_the_public_surface_is_pinned():
    exported = sorted(name for name, value in vars(wavedetect).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES


def test_every_test_data_file_is_named_by_a_test():
    text = "".join(path.read_text() for path in TESTS.glob("*.py"))
    orphans = [path.name for path in sorted((TESTS / "data").iterdir()) if path.name not in text]
    assert not orphans, f"files in tests/data that no test module names: {orphans}"


def bench_spans():
    """``bench/spans.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_DIR / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_site_the_bench_tracer_patches_exists():
    """``bench/spans.py`` patches the sites of ``Tracer._targets`` where they
    exist, and always ``decode``, ``backward`` and ``zero_grad``. Two are
    gone, and each span keeps its name, reading zero calls, until the
    benchmark is next changed: ``model.lstm_cell`` was folded into
    ``lstm_sequence``, and ``training.score_fragment`` into
    ``score_windows``, which ``VoteState.push_block`` now calls directly."""
    sites = [(owner, attr) for owner, attr, _ in bench_spans().Tracer()._targets(wavedetect)]
    sites += [(WaveletAutoencoder, "decode"), (Tensor, "backward"), (Adam, "zero_grad")]

    def where(owner):
        return owner.__name__ if isinstance(owner, types.ModuleType) else f"{owner.__module__}.{owner.__qualname__}"

    missing = [f"{where(owner)}.{attr}" for owner, attr in sites if attr not in owner.__dict__]
    assert missing == ["wavedetect.model.lstm_cell", "wavedetect.training.score_fragment"]
    # The traced decode passes the teacher activations as the second positional argument.
    assert list(inspect.signature(WaveletAutoencoder.decode).parameters) == ["self", "code", "teacher"]


def test_traced_training_counts_each_graph_before_backward_consumes_it():
    """The bench tracer walks each loss's graph before ``backward`` runs.
    A traced ``train`` returns what an untraced one does, and every count
    covers a whole graph, not a loss whose parents are already gone."""
    cfg = ModelConfig(channels=2, fragment_length=64, levels=1, conv=((4, 4, 2),), hidden=3, seed=2)
    windows = np.random.default_rng(3).normal(size=(3, 2, 64))

    def run():
        losses = []
        det = wavedetect.train(windows, TrainConfig(model=cfg, epochs=2, seed=1),
                               progress=lambda epoch, loss: losses.append(loss))
        return losses, det.threshold, [p.data for p in det.model.parameters()]

    tracer = bench_spans().Tracer()
    with tracer.active(wavedetect):
        traced = run()
    untraced = run()
    assert traced[:2] == untraced[:2]
    assert all(np.array_equal(a, b) for a, b in zip(traced[2], untraced[2]))
    assert len(tracer.backward_nodes) == 6 and min(tracer.backward_nodes) > 1


def test_traced_scoring_gives_the_untraced_rows_and_verdicts():
    """Under the bench tracer, which wraps ``encode``, ``decode`` and the
    layers, ``simulate``, ``sweep`` and a ``VoteState`` pass give exactly
    what they give untraced, so a change to what a pass returns cannot
    break a traced stream run unseen."""
    cfg = ModelConfig(channels=2, fragment_length=64, levels=1, conv=((4, 4, 2),), hidden=3, seed=2)
    series, ranges = synth_generate(GeneratorConfig(channels=2, hours=1.0, anomaly_count=1, anomaly_min_samples=48,
                                                    anomaly_max_samples=96, edge_margin=128), 4)
    fragments = [f for f in wavedetect.make_fragments(series, ranges, window=64) if f.label == 0][:3]
    detector = wavedetect.train(fragments, TrainConfig(model=cfg, epochs=1))
    vote = wavedetect.VoteConfig(window=64, step=16)

    def run():
        state = wavedetect.VoteState(detector, vote)
        pushed = [state.push_block(series.values[:, i : i + 16]) for i in range(0, series.length - 15, 16)]
        return (wavedetect.simulate(series, ranges, detector, vote), wavedetect.sweep(series, ranges, detector, vote),
                pushed)

    tracer = bench_spans().Tracer()
    with tracer.active(wavedetect):
        traced = run()
    untraced = run()
    assert traced == untraced
    calls = tracer.table()
    assert all(calls[name]["calls"] > 0 for name in ("model.encode", "model.decode_teacher", "nn.conv1d",
                                                       "streaming.simulate", "streaming.push_block"))


TINY = dict(channels=2, fragment_length=64, levels=1, conv=((4, 4, 2),), hidden=3, seed=2)


@pytest.mark.parametrize("cfg,nodes", [
    (ModelConfig(channels=8), 99),
    (ModelConfig(**TINY), 39),
    (ModelConfig(channels=8, classifier=True), 103),
    (ModelConfig(**TINY, classifier=True), 43),
], ids=["default", "tiny", "default-supervised", "tiny-supervised"])
def test_one_training_step_records_a_known_number_of_graph_nodes(cfg, nodes):
    """A step's graph holds every parameter, 2K + 2 op nodes per scale for K
    conv layers (each conv and each deconv layer, with its ReLU, the
    decoder's initial state and the step head's one op, which reads the
    scale's columns of the decoder's hidden states), and three shared ones:
    the encoder LSTM pass, which is the code, the decoder LSTM pass and the
    reconstruction loss. A supervised
    step adds the head's logit and the one node of its objective. A change
    to the graph's size must change this count."""
    model = WaveletAutoencoder(cfg)
    inputs = [np.ones((1, cfg.channels, cfg.fragment_length >> s)) for s in range(cfg.levels + 1)]
    code, acts = model.encode(inputs)
    loss = reconstruction_loss(inputs, model.decode(code, acts))
    if cfg.classifier:
        loss = supervised_loss(loss, model.logit(code), 1, 0.5)
    per_scale = 2 * len(cfg.conv) + 2
    assert len(model.parameters()) + (cfg.levels + 1) * per_scale + 3 + 2 * cfg.classifier == nodes
    assert bench_spans().count_graph_nodes(loss) == nodes
