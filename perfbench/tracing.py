"""Layer tracing from outside the library.

The traced run replaces each function in LAYERS, in every twoslit
module that binds it, with a wrapper that records a span (function,
start, end, parent span, operation id) in memory. A function's self
time is the time of its spans minus the time of their direct child
spans. The spans are written to an .npz file when the run ends. The
untraced run installs nothing.
"""

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, function) of every wrapped public function
LAYERS = (
    ("synthetic", "reprojection_rms"),
    ("synthetic", "refine_triangulation"),
    ("synthetic", "triangulate_correspondence"),
    ("synthetic", "generate_scene"),
    ("synthetic", "random_calibrated_cameras"),
    ("cameras", "project"),
    ("cameras", "inverse_ray"),
    ("epipolar", "estimate_tensor_linear"),
    ("epipolar", "epipolar_residual"),
    ("epipolar", "recover_minor_matrices"),
    ("epipolar", "two_configurations"),
    ("epipolar", "tensor_from_cameras"),
    ("selfcal", "estimate_daq"),
    ("selfcal", "extract_upgrade"),
    ("io", "read_correspondences"),
    ("io", "read_json"),
    ("cli", "main"),
    ("experiments", "run_sfm_experiment"),
    ("experiments", "run_selfcal_experiment"),
)

CLEAN_RESIDUAL = 1e-8


def _path_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in LAYERS]
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.clean = 0
        self.candidates = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._io_reads = {self.names.index("io.read_correspondences"),
                          self.names.index("io.read_json")}

    def install(self):
        """Wrap every LAYERS function wherever a twoslit module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "twoslit" or name.startswith("twoslit."))]
        for nid, (module, function) in enumerate(LAYERS):
            original = getattr(sys.modules[f"twoslit.{module}"], function)
            wrapper = self._wrap(nid, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, nid, fn):
        after = {"epipolar.recover_minor_matrices": self._after_recover,
                 "io.read_correspondences": self._after_read,
                 "io.read_json": self._after_read,
                 "cli.main": self._after_main}.get(self.names[nid])
        start, end, stack = self.start, self.end, self.stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent = stack[-1] if stack else -1
            start.append(0.0)
            end.append(0.0)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(parent, args, kwargs, result)
            return result

        return wrapper

    def _after_recover(self, parent, args, kwargs, result):
        self.candidates += len(result)
        self.clean += sum(1 for _, residual in result if residual < CLEAN_RESIDUAL)

    def _after_read(self, parent, args, kwargs, result):
        # read_correspondences reads JSON through read_json: count once
        if parent >= 0 and self.name_id[parent] in self._io_reads:
            return
        self.bytes_read += _path_size(args[0] if args else kwargs["path"])

    def _after_main(self, parent, args, kwargs, result):
        argv = list(args[0] if args else kwargs.get("argv") or [])
        if "--out" in argv:
            self.bytes_written += _path_size(argv[argv.index("--out") + 1])

    def self_times(self):
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return dur - child

    def metrics(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        n = len(LAYERS)
        self_s = np.bincount(name_id, weights=self.self_times(), minlength=n)
        calls = np.bincount(name_id, minlength=n)
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.self_s"] = {"value": float(self_s[nid]), "unit": "s"}
            out[f"{name}.calls"] = {"value": int(calls[nid]), "unit": "count"}
        ratio = self.clean / self.candidates if self.candidates else 0.0
        out["epipolar.recover_minor_matrices.clean_per_candidate"] = {
            "value": ratio, "unit": "ratio"}
        out["io.bytes_read"] = {"value": self.bytes_read, "unit": "bytes"}
        out["cli.bytes_written"] = {"value": self.bytes_written, "unit": "bytes"}
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32))
