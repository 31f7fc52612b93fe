import ast
import dataclasses
import inspect

import proxgn
from proxgn import linalg, problems, prox, radius, solver

MODULES = (linalg, prox, radius, solver, problems)

# the private keyword hand-offs that bench/ passes to public functions
PINNED_PRIVATE_PARAMETERS = {
    ("prox_gn_step", "_linearized"),
    ("prox_metric", "_svals"),
    ("r_bar_numeric", "_sup"),
}


def public_signatures():
    """(name, signature) of each callable in __all__ and of each public method
    its classes define; exception classes, which have no signature, are skipped,
    and so are field defaults such as ``Problem.validity``."""
    for name in proxgn.__all__:
        obj = getattr(proxgn, name)
        if not callable(obj):
            continue
        try:
            yield name, inspect.signature(obj)
        except ValueError:
            pass
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if inspect.isfunction(fn) and fn.__qualname__ == f"{obj.__qualname__}.{attr}" \
                        and not attr.startswith("_"):
                    yield f"{name}.{attr}", inspect.signature(getattr(obj, attr))


def test_each_public_name_is_listed_once_next_to_its_definition():
    assert proxgn.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(proxgn.__all__)) == len(proxgn.__all__)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name
        star: dict = {}
        exec(f"from {module.__name__} import *", star)
        assert sorted(set(star) - {"__builtins__"}) == sorted(module.__all__)
    star = {}
    exec("from proxgn import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(proxgn.__all__)


def module_level_names(module):
    """Names a module binds at its top level by assignment, ``def`` or ``class``;
    imported names are not among them."""
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_every_public_module_level_name_is_listed():
    for module in MODULES:
        names = set(module_level_names(module))
        assert "__all__" in names
        unlisted = {n for n in names if not n.startswith("_")} - set(module.__all__)
        assert unlisted == set(), module.__name__


def test_private_parameters_are_only_the_pinned_hand_offs():
    private = {(name, param) for name, sig in public_signatures()
               for param in sig.parameters if param.startswith("_")}
    assert private == PINNED_PRIVATE_PARAMETERS


def test_rank_tolerance_is_not_a_setting():
    # the one rank rule reads DEFAULT_RANK_TOLERANCE; nothing public takes it
    params = [(name, param) for name, sig in public_signatures() for param in sig.parameters]
    params += [(name, f.name) for name in proxgn.__all__
               if dataclasses.is_dataclass(getattr(proxgn, name))
               for f in dataclasses.fields(getattr(proxgn, name))]
    assert [p for p in params if "rank" in p[1].lower()] == []
