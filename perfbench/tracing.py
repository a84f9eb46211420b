"""Spans around the public entry points of each assgp layer.

Only a traced run (``--trace 1``) builds a :class:`Tracer` and installs it;
an untraced run imports this module but patches nothing.  The wrappers live
here, in the benchmark, so nothing under ``src/`` changes.

A span records (id, name, start, end, parent id, op id).  Spans stay in
memory and are written as JSON lines when the run ends.  A span's self time
is its duration minus the time its child spans cover.

The word kernel is not wrapped: ``multiply`` and ``Word.__hash__`` run
10^5-10^6 times per run and are imported by name everywhere, so a wrapper
would distort the run.  ``wordbench`` measures them on fixed corpora instead.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from workloads import percentile

WITNESS_FAMILIES = ("A", "B", "C", "AD", "E")

#: Per-layer metrics a traced run reports, with their units.  Every traced
#: run reports all of them; a layer that a workload does not reach reads 0.
LAYER_METRICS = (
    [
        ("words.multiply_ns", "ns"),
        ("words.hash_ns", "ns"),
        ("words.eq_ns", "ns"),
        ("words.supported_in_ns", "ns"),
        ("words.format_parse_us", "us"),
        ("words.format_parse.failures", "count"),
        ("nbhd.member.calls", "count"),
        ("nbhd.member.self_s", "s"),
        ("nbhd.member.unknown_share", "ratio"),
        ("nbhd.enumerate.calls", "count"),
        ("nbhd.enumerate.self_s", "s"),
        ("nbhd.verify_rep.self_s", "s"),
        ("poset.threshold.self_s", "s"),
    ]
    + [(f"poset.witness.{fam}.self_s", "s") for fam in WITNESS_FAMILIES]
    + [
        ("poset.is_extension.calls", "count"),
        ("poset.is_extension.self_s", "s"),
        ("poset.is_extension.checked", "count"),
        ("poset.is_extension.unknowns", "count"),
        ("poset.verify_cyc_cert.self_s", "s"),
        ("cancel.make_setting.self_s", "s"),
        ("cancel.collapse_check.self_s", "s"),
        ("cancel.same_sign_not_in_FX.self_s", "s"),
        ("cancel.eta_invariance_check.self_s", "s"),
        ("chain.step.self_s", "s"),
        ("chain.step.self_tail_s", "s"),
        ("chain.basis_member.calls", "count"),
        ("chain.basis_member.self_s", "s"),
        ("chain.basis_member.stages_per_call", "count"),
        ("chain.check_group_axioms.self_s", "s"),
        ("chain.serialize.self_s", "s"),
        ("chain.deserialize.self_s", "s"),
        ("chain.verify_certificates.self_s", "s"),
        ("cli.main.self_s", "s"),
        ("trace.overhead.command_s", "s"),
        ("trace.overhead.op_p50_ms", "ms"),
        ("trace.overhead.op_tail_ms", "ms"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, child time]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name_of, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs) if callable(name_of) else name_of
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent[2] += end - start
                tracer.self_times[name].append(end - start - frame[2])
                tracer.spans.append(
                    (frame[0], name, start, end, parent[0] if parent else None, tracer.op_id)
                )
                if name == "nbhd.member" and parent is not None and parent[1] == "chain.basis_member":
                    tracer.counts["basis_member.stages"] += 1
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def _patch(self, owners, attr, name_of, after=None):
        original = getattr(owners[0], attr)
        traced = self._wrap(name_of, original, after)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the function it imports")
            self._patches.append((owner, attr, original))
            setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap each layer's public entry points, including the names that
        ``chain`` and ``poset`` import from the layers below them."""
        from assgp import cancel, chain, cli, nbhd, poset

        self._patch([nbhd.Nsys], "member", "nbhd.member", after=_count_member)
        self._patch([nbhd.Nsys], "enumerate", "nbhd.enumerate")
        self._patch([nbhd.Nsys], "verify_rep", "nbhd.verify_rep")
        self._patch([poset], "threshold", "poset.threshold")
        self._patch([poset, chain], "witness", _witness_name)
        self._patch([poset, chain], "is_extension", "poset.is_extension", after=_count_extension)
        self._patch([poset, chain], "verify_cyc_cert", "poset.verify_cyc_cert")
        self._patch([cancel, poset], "make_setting", "cancel.make_setting")
        for fn in ("collapse_check", "same_sign_not_in_FX", "eta_invariance_check"):
            self._patch([cancel], fn, f"cancel.{fn}")
        for method in ("step", "basis_member", "check_group_axioms", "verify_certificates"):
            self._patch([chain.ChainState], method, f"chain.{method}")
        self._patch([chain], "serialize", "chain.serialize")
        self._patch([chain], "deserialize", "chain.deserialize")
        self._patch([cli], "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    def layer_metrics(self, tail_pct: float) -> dict[str, float]:
        """Span-derived per-layer values (everything but the word kernel and
        the tracing overhead)."""
        def calls(name):
            return len(self.self_times.get(name, ()))

        def self_s(name):
            return sum(self.self_times.get(name, ()))

        out: dict[str, float] = {}
        for metric, _ in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls(layer)
            elif stat == "self_s" and layer != "chain.step":
                out[metric] = self_s(layer)
        member_calls = calls("nbhd.member")
        out["nbhd.member.unknown_share"] = (
            self.counts["nbhd.member.unknown"] / member_calls if member_calls else 0.0
        )
        out["poset.is_extension.checked"] = self.counts["is_extension.checked"]
        out["poset.is_extension.unknowns"] = self.counts["is_extension.unknowns"]
        basis_calls = calls("chain.basis_member")
        out["chain.basis_member.stages_per_call"] = (
            self.counts["basis_member.stages"] / basis_calls if basis_calls else 0.0
        )
        steps = self.self_times.get("chain.step", [])
        out["chain.step.self_s"] = statistics.median(steps) if steps else 0.0
        out["chain.step.self_tail_s"] = percentile(steps, tail_pct) if steps else 0.0
        return out


def _witness_name(args, kwargs) -> str:
    d = args[1] if len(args) > 1 else kwargs["d"]
    return "poset.witness." + type(d).__name__.removeprefix("Desc")


def _count_member(tracer: Tracer, ans) -> None:
    if not ans.is_yes and not ans.is_no:
        tracer.counts["nbhd.member.unknown"] += 1


def _count_extension(tracer: Tracer, report) -> None:
    tracer.counts["is_extension.checked"] += report.checked
    tracer.counts["is_extension.unknowns"] += report.unknowns
