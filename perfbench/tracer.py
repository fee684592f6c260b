"""Spans around gkw's public functions, recorded from outside the program.

`Tracer.install()` replaces every public function, and every public method
of every public class, defined in the traced gkw modules with a wrapper
that records a span. Other gkw modules that imported the same function by
name (`synth` holds its own `write_features`, for example) are patched too.
Each Tensor a wrapped function returns has its backward closure wrapped, so
the backward pass records one span per op node. `uninstall()` puts every
original back.

Spans stay in memory as lists `[name, start, end, parent, attrs]`, with
`parent` the index of the enclosing span (-1 at the top), and are written
as JSONL by `write_jsonl` once the run is over. The program is single
threaded, so one stack of open spans gives every span its parent.
"""

import contextlib
import functools
import importlib
import inspect
import json
import time

TRACED_MODULES = (
    "ops", "tensor", "optim", "models", "synth", "targets",
    "features", "evaluation", "cli",
)

NAME, START, END, PARENT, ATTRS = range(5)


def _conv_attrs(args, kwargs, result):
    """Layer label from the filter tensor's name, and the computed FLOPs."""
    x = args[0] if args else kwargs["x"]
    filters = args[1] if len(args) > 1 else kwargs["filters"]
    name = getattr(filters, "op", "")
    label = name[: -len(".filters")] if name.endswith(".filters") else "conv"
    K, width, D = filters.data.shape
    out = result.data
    rows = out.shape[0] if out.ndim == 3 else 1
    T_out = out.shape[-2]
    fwd = 2 * rows * T_out * K * width * D
    # the filter gradient and the input gradient each cost one forward
    bwd = fwd * (int(filters.requires_grad) + int(getattr(x, "requires_grad", False)))
    return {"layer": label, "flops": fwd, "bwd_flops": bwd}


def _forward_attrs(args, kwargs, result):
    features = args[1] if len(args) > 1 else kwargs["features"]
    lengths = args[2] if len(args) > 2 else kwargs.get("lengths")
    shape = getattr(features, "shape", ())
    if len(shape) != 3:
        return {"batched": False}
    B, T = int(shape[0]), int(shape[1])
    valid = B * T if lengths is None else int(sum(int(n) for n in lengths))
    return {"batched": True, "rows": B, "computed": B * T, "valid": valid}


def _adam_attrs(args, kwargs, result):
    opt = args[0]
    params = sum(int(p.data.size) for _, p in opt.params)
    itemsize = opt.params[0][1].data.itemsize if opt.params else 0
    return {"params": params, "itemsize": itemsize}


def _cli_attrs(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    command = next((a for a in argv if not a.startswith("-")), None)
    return {"command": command, "localize": "--emit-localization" in argv,
            "exit": result}


# attributes computed after a call returns, outside the call's own span
_ATTRS = {
    "ops.conv1d_valid": _conv_attrs,
    "models.SpeechModel.forward": _forward_attrs,
    "optim.Adam.step": _adam_attrs,
    "cli.main": _cli_attrs,
}


def _graph_nodes(root):
    """Nodes a backward sweep from `root` visits (it and every ancestor
    that requires a gradient), counted the way `Tensor.backward` walks."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patches = []
        self._tensor_type = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        attrs_of = _ATTRS.get(name)
        tensor_type = self._tensor_type
        is_backward = name == "tensor.Tensor.backward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if attrs_of is not None:
                tracer.spans[idx][ATTRS] = attrs_of(args, kwargs, result)
            elif is_backward:
                tracer.spans[idx][ATTRS] = {"nodes": _graph_nodes(args[0])}
            if isinstance(result, tensor_type):
                inputs = {id(a) for a in (*args, *kwargs.values()) if isinstance(a, tensor_type)}
                tracer._wrap_closures(result, inputs, name, idx)
            return result

        return wrapper

    def _wrap_closures(self, root, inputs, name, call_idx):
        """Wrap the backward closures of the nodes this call created.

        The walk stops at the call's Tensor arguments (`inputs`, by id),
        which existed before it began. A wrapped closure is tagged with the
        index of the call that wrapped it. The walk goes through nodes
        tagged by a call nested in this one, since they were made inside
        it, and stops at a node tagged by an earlier call.
        """
        attrs = self.spans[call_idx][ATTRS]
        stack = [root]
        while stack:
            node = stack.pop()
            closure = node._backward
            if closure is None or id(node) in inputs:
                continue
            tag = getattr(closure, "__gkw_call__", None)
            if tag is not None and tag < call_idx:
                continue
            if tag is None:
                node._backward = self._closure(closure, name + ":backward", attrs, call_idx)
            stack.extend(node._parents)

    def _closure(self, closure, name, attrs, call_idx):
        tracer = self

        def backward():
            idx = tracer._open(name, attrs)
            try:
                closure()
            finally:
                tracer._close(idx)

        backward.__gkw_call__ = call_idx
        return backward

    def install(self):
        """Patch every traced function in place; returns self."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"gkw.{m}") for m in TRACED_MODULES}
        self._tensor_type = modules["tensor"].Tensor
        replaced = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    replaced[id(obj)] = wrapper
                    self._patch(module, attr, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        # modules that imported a traced function by name hold their own reference
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._patch(module, attr, wrapper)
        return self

    def _wrap_class(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", raw))
            elif isinstance(raw, (staticmethod, classmethod)):
                wrapped = self._wrap(f"{prefix}.{attr}", raw.__func__)
                self._patch(cls, attr, type(raw)(wrapped))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path):
        """One span per line: name, start and end in seconds, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "run": self.run_id}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
