"""Seeded experiments over the streaming estimators, with reproducible reports.

An ``ExperimentConfig`` names an algorithm, an instance (a stream file or a
generator spec), parameters, a trial count, and a master seed. The table
``EXPERIMENTS`` declares each algorithm's instance, runner and params; a
param it does not list is a ``ConfigError``. ``run_experiment`` runs the
algorithm's runner, which compares Monte-Carlo aggregates against the exact
oracles at four-sigma gates, and returns a ``Report`` whose JSON form is
canonical: the same config and seed always produce the same bytes. A gate's
sigma is the standard error, at the trial count, of the exact law the draws
come from (bhm's majority vote: sampled).
The runners read only per-atom counts of their trials, and draw them as one
multinomial (``Law.draw_counts``), so an experiment's sampling costs
O(atoms) in time and memory whatever its trial count; bhm's majority vote
draws each committee's ones, zeros and aborts from the three-output law.

Every random purpose has its own stream of the master seed
(``sketch.purpose_rng``): each sampler, the majority vote, and each
equivalence script i, none of which is a live handle's ``[master_seed,
handle_id]`` stream. So the numbers do not depend on execution order and a
parallel driver would reproduce them.
"""
from __future__ import annotations

import collections
import csv
import dataclasses
import io
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from . import bhm as _bhm
from . import heavy_edges as _heavy
from . import pseudosnapshot as _snap
from . import triangle as _tri
from .bhm import BhmInstance, EdgeLabel, VertexBit
from .errors import ConfigError, InvalidParamsError, ParseError, ValidationError
from .heavy_edges import DirectedEdgeStream
from .permutation import CyclicShift, PermutationSpec, swap_perm
from .qsim import enumerate_distribution
from .sketch import Law, QueryOne, QueryPair, ScriptOp, Update, purpose_rng
from .triangle import EdgeStream
from .universe import Block, IntRange, UniverseSpec

SCHEMA_VERSION = 1
GENERATOR_KINDS = ("gnp", "star", "planted-triangles", "matching")
SEED_ENV = "PAIRSKETCH_SEED"


# -- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; two equal configs produce byte-equal reports."""

    algorithm: str
    params: Mapping[str, Any]
    trials: int
    master_seed: int
    instance: str | Mapping[str, Any] | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if not isinstance(self.trials, int) or isinstance(self.trials, bool):
            raise ConfigError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool):
            raise ConfigError(f"master_seed must be an integer, got {self.master_seed!r}")
        if not isinstance(self.params, Mapping):
            raise ConfigError(f"params must be a mapping, got {type(self.params).__name__}")
        object.__setattr__(self, "params", dict(self.params))
        if EXPERIMENTS[self.algorithm].instance_type is None:
            if self.instance is not None:
                raise ConfigError(f"{self.algorithm} experiments take no instance")
        elif self.instance is None:
            raise ConfigError(f"{self.algorithm} experiments need an instance")
        elif not isinstance(self.instance, (str, Mapping)):
            raise ConfigError("instance must be a file path or a generator spec mapping")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted({"algorithm", "params", "trials", "master_seed"} - set(data))
        if missing:
            raise ConfigError(f"missing config keys: {', '.join(missing)}")
        return cls(**dict(data))

    def to_dict(self) -> dict[str, Any]:
        inst = self.instance
        return {
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "instance": dict(inst) if isinstance(inst, Mapping) else inst,
            "output": self.output,
        }


# -- report ----------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    schema_version: int
    config: dict[str, Any]
    results: dict[str, Any]
    verdicts: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "results": self.results,
            "verdicts": dict(self.verdicts),
            "passed": self.passed,
        }


def _plain(value: Any) -> Any:
    """Recursively reduce to JSON-safe builtins with deterministic text forms."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if not math.isfinite(v):
            raise ConfigError(f"non-finite value {v!r} cannot go in a report")
        return v
    if isinstance(value, int):
        return value
    if isinstance(value, Mapping):
        out = {}
        for k, v in value.items():
            key = str(k)
            if key in out:
                raise ConfigError(f"duplicate report key {key!r}")
            out[key] = _plain(v)
        return out
    if isinstance(value, (list, tuple)) or (
        isinstance(value, np.ndarray) and value.ndim >= 1
    ):
        return [_plain(v) for v in value]
    raise ConfigError(f"cannot serialize {type(value).__name__} into a report")


def canonical_json(data: Any) -> str:
    """Sorted keys, two-space indent, round-trip floats; stable across runs."""
    return json.dumps(_plain(data), sort_keys=True, indent=2) + "\n"


def emit_report(report: Report, path: str | os.PathLike) -> None:
    """Write the canonical JSON report plus a one-row CSV summary beside it."""
    target = Path(path)
    target.write_text(canonical_json(report.to_dict()), encoding="utf-8")

    summary: dict[str, Any] = {
        "schema_version": report.schema_version,
        "algorithm": report.config.get("algorithm"),
        "trials": report.config.get("trials"),
        "master_seed": report.config.get("master_seed"),
        "passed": report.passed,
    }
    for name in sorted(report.verdicts):
        summary[f"verdict:{name}"] = report.verdicts[name]
    for name in sorted(report.results):
        value = report.results[name]
        if isinstance(value, (int, float, str, bool, Fraction)):
            summary[f"result:{name}"] = _plain(value)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(summary.keys())
    writer.writerow(summary.values())
    target.with_suffix(".csv").write_text(buf.getvalue(), encoding="utf-8")


# -- instance files ---------------------------------------------------------------


def parse_stream(path: str | os.PathLike, kind: str = "auto"):
    """Read an instance file as ``EdgeStream | DirectedEdgeStream | BhmInstance``.

    ``kind`` picks the reader: "undirected", "directed", "bhm", or "auto".
    The two graph formats are textually identical, so "auto" can only
    distinguish the three-field matching header; a two-field header defaults
    to an undirected stream and callers that need direction must say so.
    A malformed file raises ``ParseError`` naming the path and, where one is
    at fault, the line.
    """
    if kind not in ("auto", "bhm", "directed", "undirected"):
        raise ConfigError(f"unknown stream kind {kind!r}")
    lines = _read_lines(path)
    if kind == "auto":
        kind = "bhm" if len(lines[0][1].split()) == 3 else "undirected"
    if kind == "bhm":
        return _parse_bhm(path, lines)
    return _parse_edge_list(path, lines, DirectedEdgeStream if kind == "directed" else EdgeStream)


def _read_lines(path) -> list[tuple[int, str]]:
    """Nonblank lines of an ASCII text file, stripped, with 1-based numbers."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one are ASCII; a stand-in for the bad byte
        # makes the line count end on the line that holds it
        lno = len((data[: exc.start] + b"?").decode("ascii").splitlines())
        raise ParseError(f"{path}:{lno}: non-ASCII byte 0x{data[exc.start]:02x}") from None
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty stream file")
    return lines


def _parse_edge_list(path, lines, cls):
    """Header "n m", then one "u v" line per edge in arrival order."""
    lno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"{path}:{lno}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"{path}:{lno}: non-integer header field") from None
    rows = [ln.split() for _, ln in lines[1:]]
    try:  # every field in one conversion; on a fault, the loop below names its line
        ends = None if {*map(len, rows)} - {2} else [
            *map(int, itertools.chain.from_iterable(rows))]
    except ValueError:
        ends = None
    edges = [] if ends is None else [*zip(ends[::2], ends[1::2])]
    for lno, ln in lines[1:] if ends is None else ():
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lno}: expected 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"{path}:{lno}: non-integer field in {ln!r}") from None
    if len(edges) != m:
        raise ParseError(f"{path}: header promises {m} edges, found {len(edges)}")
    try:
        return cls(n, tuple(edges))
    except ValidationError as exc:
        # a fault of no single edge is the header's vertex count
        at = lines[0 if exc.item is None else exc.item + 1][0]
        raise ParseError(f"{path}:{at}: {exc}") from None


def _parse_bhm(path, lines) -> BhmInstance:
    """Header "n alpha b", then stream lines "V v bit" / "E u v z"."""
    lno, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(f"{path}:{lno}: header must be 'n alpha b'")
    try:
        n, alpha, b = int(parts[0]), _alpha(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"{path}:{lno}: bad header: {exc}") from None
    except InvalidParamsError as exc:
        raise ParseError(f"{path}:{lno}: {exc}") from None
    if b not in (0, 1):
        raise ParseError(f"{path}:{lno}: hidden bit {b} is not a bit")
    stream: list = []
    x: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    zs: list[int] = []
    matched: dict[int, int] = {}  # vertex -> line of the E line that matched it
    edge_lines: list[int] = []
    for lno, ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] == "V" and len(parts) == 3:
                v, bit = int(parts[1]), int(parts[2])
                if not 1 <= v <= n:
                    raise ParseError(f"{path}:{lno}: vertex {v} outside [1, {n}]")
                if v in x:
                    raise ParseError(f"{path}:{lno}: second bit line for vertex {v}")
                stream.append(VertexBit(v, bit))
                x[v] = bit
            elif parts[0] == "E" and len(parts) == 4:
                u, v, z = int(parts[1]), int(parts[2]), int(parts[3])
                if not (1 <= u <= n and 1 <= v <= n) or u == v:
                    raise ParseError(
                        f"{path}:{lno}: ({u}, {v}) is not a vertex pair in [1, {n}]"
                    )
                for w in (u, v):
                    if w in matched:
                        raise ParseError(
                            f"{path}:{lno}: vertex {w} already matched on line {matched[w]}"
                        )
                matched.update({u: lno, v: lno})
                edge_lines.append(lno)
                stream.append(EdgeLabel(u, v, z))
                edges.append((u, v))
                zs.append(z)
            else:
                raise ParseError(f"{path}:{lno}: expected 'V v bit' or 'E u v z'")
        except ValueError:
            raise ParseError(f"{path}:{lno}: non-integer field in {ln!r}") from None
        if int(parts[-1]) not in (0, 1):
            raise ParseError(f"{path}:{lno}: {parts[-1]} is not a bit")
    if len(x) < n:
        # every V line names a distinct vertex of [1, n], so one of the
        # first len(x) + 1 vertices has none
        missing = next(v for v in range(1, len(x) + 2) if v not in x)
        raise ValidationError(f"{path}: no vertex-bit line for vertex {missing}")
    xs = tuple(x[v] for v in range(1, n + 1))
    try:
        return BhmInstance(n, alpha, tuple(edges), tuple(zs), xs, b, tuple(stream))
    except InvalidParamsError as exc:  # n and alpha come from the header alone
        raise ParseError(f"{path}:{lines[0][0]}: {exc}") from None
    except ValidationError as exc:
        at = f"{path}" if exc.item is None else f"{path}:{edge_lines[exc.item]}"
        raise ParseError(f"{at}: {exc}") from None


def write_instance(obj, path: str | os.PathLike) -> None:
    """Write any of the three instance types in the text format ``parse_stream`` reads."""
    if isinstance(obj, BhmInstance):
        lines = [f"{obj.n} {obj.alpha} {obj.b}"]
        for item in obj.stream:
            if isinstance(item, VertexBit):
                lines.append(f"V {item.v} {item.bit}")
            else:
                lines.append(f"E {item.u} {item.v} {item.z}")
    elif isinstance(obj, (DirectedEdgeStream, EdgeStream)):
        lines = [f"{obj.n} {obj.m}"] + [f"{u} {v}" for u, v in obj.edges]
    else:
        raise ConfigError(f"cannot write a {type(obj).__name__} as an instance file")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# -- instance generators -----------------------------------------------------------


def _alpha(value) -> Fraction:
    """A matching density, exact. A string with an exponent is refused:
    Fraction would expand it into an integer of that many digits."""
    if isinstance(value, str) and "e" in value.lower():
        raise InvalidParamsError(f"alpha {value[:20]!r} has an exponent")
    return _snap.to_fraction(value)


def generate_graph(kind: str, params: Mapping[str, Any], seed: int):
    """Seeded instance generator; returns ``(instance, sidecar)``.

    The sidecar is a small dict of ground truth the generator knows by
    construction (planted triangle count, matching bit, edge count) so
    experiments can check estimates without re-deriving the answer.
    """
    params = dict(params)
    if kind == "gnp":
        n, p = _int_param(kind, params, "n"), _snap.to_fraction(_required(kind, params, "p"))
        _reject_extras(kind, params)
        if n < 1 or not 0 <= p <= 1:
            raise InvalidParamsError(f"gnp needs n >= 1 and p in [0, 1], got n={n}")
        p = float(p)
        rng = np.random.default_rng(seed)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = [e for e in pairs if rng.random() < p]
        order = rng.permutation(len(edges))
        stream = EdgeStream(n, tuple(edges[i] for i in order))
        return stream, {"kind": kind, "n": n, "p": p, "m": stream.m}
    if kind == "star":
        n = _int_param(kind, params, "n")
        _reject_extras(kind, params)
        if n < 2:
            raise InvalidParamsError(f"star needs n >= 2, got {n}")
        stream = DirectedEdgeStream(n, tuple((n, v) for v in range(1, n)))
        return stream, {"kind": kind, "n": n, "center": n, "m": stream.m}
    if kind == "planted-triangles":
        n, t = _int_param(kind, params, "n"), _int_param(kind, params, "t")
        _reject_extras(kind, params)
        if t < 0 or 3 * t > n:
            raise InvalidParamsError(f"planted-triangles needs 0 <= 3t <= n, got n={n}, t={t}")
        rng = np.random.default_rng(seed)
        relabel = rng.permutation(n) + 1
        edges = []
        for i in range(t):
            a, b, c = (int(relabel[3 * i + j]) for j in range(3))
            edges.extend([(a, b), (a, c), (b, c)])
        order = rng.permutation(len(edges))
        stream = EdgeStream(n, tuple(edges[i] for i in order))
        return stream, {"kind": kind, "n": n, "triangles": t, "m": stream.m}
    if kind == "matching":
        n = _int_param(kind, params, "n")
        alpha = _alpha(_required(kind, params, "alpha"))
        b = _int_param(kind, params, "b", None)
        interleaving = params.pop("interleaving", "shuffle")
        _reject_extras(kind, params)
        if b is None:
            b = int(np.random.default_rng(seed).integers(0, 2))
        inst = _bhm.generate_instance(n, alpha, b, seed, interleaving)
        return inst, {"kind": kind, "n": n, "alpha": str(alpha), "b": inst.b, "m": inst.m}
    raise ConfigError(f"unknown generator kind {kind!r}; know {GENERATOR_KINDS}")


REQUIRED = object()  # the default of a param that has none


def _int_param(kind: str, params: dict, field: str, default: Any = REQUIRED) -> Any:
    """Pop integer ``field`` from ``params``; ``default`` when absent.

    ``kind`` names the generator or algorithm the params are for. Raises
    ``ConfigError`` naming the kind and field for a missing value, a bool, a
    string or any other non-integral value; an integral float is taken as its
    integer.
    """
    value = params.pop(field, default)
    if value is REQUIRED:
        raise ConfigError(f"{kind} needs an integer {field!r}")
    if value is default:
        return value
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{kind} {field!r} must be an integer, got {value!r:.40}")
    return int(value)


def _required(kind: str, params: dict, field: str) -> Any:
    """Pop ``field`` from ``params``; ``ConfigError`` naming the kind and field when absent."""
    if field not in params:
        raise ConfigError(f"{kind} needs {field!r}")
    return params.pop(field)


def _reject_extras(kind: str, leftovers: dict, role: str = "generator") -> None:
    if leftovers:
        raise ConfigError(f"{kind} {role} got unknown params: {sorted(leftovers)}")


def _load_instance(config: ExperimentConfig):
    algorithm = EXPERIMENTS[config.algorithm]
    src = config.instance
    if src is None:
        return None
    if isinstance(src, str):
        obj = parse_stream(src, kind=algorithm.stream_kind)
    else:
        spec = dict(src)
        kind = spec.pop("kind", None)
        if kind is None:
            raise ConfigError("generator spec needs a 'kind' entry")
        gen_seed = _int_param(kind, spec, "seed", config.master_seed)
        obj, _ = generate_graph(kind, spec, gen_seed)
    if not isinstance(obj, algorithm.instance_type):
        raise ConfigError(
            f"{config.algorithm} needs a {algorithm.instance_type.__name__}, "
            f"got {type(obj).__name__}"
        )
    return obj


# -- experiment runners -------------------------------------------------------------

# Each runner returns (results, verdicts, gates). A gate records the numbers a
# four-sigma comparison used, so failures can print oracle, mean, and sigma.


def _law_gate(oracle, law: Law, f, total, trials: int) -> dict[str, float]:
    """Gate of ``trials`` draws of ``f(key)`` from the exact ``law``, summing to ``total``.

    Sigma is the standard error sqrt(Var f/trials), with the moments taken
    exactly from the law: outcomes never drawn still count.
    """
    mean = law.expect(f)
    var = law.expect(lambda key: f(key) ** 2) - mean**2
    sigma = math.sqrt(var / trials)
    return {"oracle": float(oracle), "value": float(total) / trials, "sigma": sigma}


def _within(gate: dict[str, float]) -> bool:
    return abs(gate["value"] - gate["oracle"]) <= 4 * gate["sigma"]


def _run_bhm(inst: BhmInstance, trials, seed, meta_trials, copies):
    if meta_trials < 0 or (copies is not None and copies < 1):
        raise ConfigError(f"need meta_trials >= 0 and copies >= 1, got {meta_trials}, {copies}")
    if copies is not None and not meta_trials:
        raise ConfigError("bhm copies counts majority votes; it needs meta_trials > 0")
    law = _bhm.terminal_slabs(inst)

    def correct(key) -> bool:
        return key[1] == inst.b

    def wrong(key) -> bool:
        return key[1] == 1 - inst.b

    p_correct, p_wrong = law.expect(correct), law.expect(wrong)
    drawn = collections.Counter()  # draws per output, None for an abort
    for (_, out), count in zip(law.atoms, _bhm.sample_counts(inst, seed, trials).tolist()):
        drawn[out] += count
    g_correct = _law_gate(inst.alpha, law, correct, drawn[inst.b], trials)
    g_wrong = _law_gate(inst.alpha / 2, law, wrong, drawn[1 - inst.b], trials)

    gates = {"correct_freq_matches_alpha": g_correct, "wrong_freq_at_most_half_alpha": g_wrong}
    verdicts = {
        "correct_freq_matches_alpha": _within(g_correct),
        "wrong_freq_at_most_half_alpha": (
            g_wrong["value"] <= g_wrong["oracle"] + 4 * g_wrong["sigma"]
        ),
        "exact_correct_prob_is_alpha": p_correct == inst.alpha,
        "exact_wrong_prob_at_most_half_alpha": p_wrong <= inst.alpha / 2,
    }
    results = {
        "n": inst.n,
        "m": inst.m,
        "alpha": inst.alpha,
        "b": inst.b,
        "exact_p_correct": p_correct,
        "exact_p_wrong": p_wrong,
        "freq_correct": g_correct["value"],
        "freq_wrong": g_wrong["value"],
        "freq_abort": drawn[None] / trials,
        "sigma_correct": g_correct["sigma"],
        "sigma_wrong": g_wrong["sigma"],
    }

    if meta_trials:
        votes = _bhm.sample_majority(inst, seed, meta_trials, copies)
        success = float(np.mean(votes == inst.b))
        # sampled: the exact majority law would be a convolution over the copies
        sigma_m = math.sqrt(max(success * (1 - success), 1e-12) / meta_trials)
        results["majority_success"] = success
        results["majority_sigma"] = sigma_m
        results["majority_copies"] = copies or _bhm.default_copies(inst.alpha)
        results["meta_trials"] = meta_trials
        gates["majority_success_at_least_two_thirds"] = {
            "oracle": 2 / 3, "value": success, "sigma": sigma_m
        }
        verdicts["majority_success_at_least_two_thirds"] = success >= 2 / 3 - 4 * sigma_m
    return results, verdicts, gates


def _signed_run(oracle, law: Law, counts: np.ndarray, trials: int, name: str):
    """Gate, verdicts and results shared by the runners whose outputs are +-value or 0.

    ``counts`` counts the draws per atom of ``law``, whose keys are the
    outputs; ``name`` names the oracle in the verdicts.
    """
    law_mean = law.expect(int)
    total = sum(out * count for out, count in zip(law.atoms, counts.tolist()))
    gate = _law_gate(oracle, law, int, total, trials)
    verdicts = {f"mean_matches_{name}": _within(gate), f"law_mean_is_{name}": law_mean == oracle}
    results = {"law_mean": law_mean, "mean": gate["value"], "ci_half_width": 4 * gate["sigma"]}
    return results, verdicts, {f"mean_matches_{name}": gate}


def _run_triangle(stream: EdgeStream, trials, seed, k):
    report = _tri.oracle_t_split(stream, k)
    law = _tri.terminal_law(stream, k)
    counts = _tri.sample_counts(stream, k, seed, trials)
    results, verdicts, gates = _signed_run(report.T_less, law, counts, trials, "t_less")
    max_abs = max(abs(out) for out, count in zip(law.atoms, counts) if count)
    verdicts["outputs_bounded_by_km"] = max_abs <= k * stream.m
    verdicts["split_sums_to_t"] = report.T_less + report.T_greater == report.T
    results.update(
        n=stream.n, m=stream.m, k=k, T=report.T, T_less=report.T_less,
        T_greater=report.T_greater, max_abs_output=max_abs, km_bound=k * stream.m,
    )
    return results, verdicts, gates


def _run_heavy(stream: DirectedEdgeStream, trials, seed, d_H, d_T):
    count = _heavy.oracle_heavy_count(stream, d_H, d_T)
    law = _heavy.terminal_law(stream, d_H, d_T)
    counts = _heavy.sample_counts(stream, d_H, d_T, seed, trials)
    results, verdicts, gates = _signed_run(count, law, counts, trials, "count")
    results.update(n=stream.n, m=stream.m, d_H=d_H, d_T=d_T, heavy_count=count)
    return results, verdicts, gates


def _run_snapshot(stream: DirectedEdgeStream, trials, seed, kappa, eps, thresholds, alpha,
                  beta, capacity_c, hash_seed):
    if not isinstance(thresholds, (list, tuple)):
        raise ConfigError(f"snapshot 'thresholds' must be a list, got {thresholds!r:.40}")
    sp = _snap.SnapshotParams(
        kappa=kappa,
        eps=eps,
        thresholds=tuple(thresholds),
        class_pair=(alpha, beta),
        capacity_c=capacity_c,
        copies=trials,
    )
    grid = _snap.DegreeGrid.from_eps(stream.n, sp.eps)
    hashes = _snap.HashOracles(seed if hash_seed is None else hash_seed, sp.kappa, sp.eps)
    plan = _snap.build_plan(stream, hashes, grid, sp)
    law = _snap.terminal_law(stream, hashes, grid, sp, plan=plan)
    oracle = _snap.lemma_expectation(stream, hashes, grid, sp)
    ell = sp.ell
    cells = [(a, b) for a in range(ell) for b in range(ell)]

    sums = law.entry_sums(seed, trials)
    gates = {
        (a, b): _law_gate(
            oracle.expectation[a][b],
            law.law,
            _snap.entry_value((a, b)),
            sums[a, b],
            trials,
        )
        for a, b in cells
    }
    # the entry nearest to (or furthest past) its four-sigma band
    worst = max(gates.values(), key=lambda g: abs(g["value"] - g["oracle"]) - 4 * g["sigma"])

    restricted = _snap.pseudosnapshot_exact(stream, hashes, grid, sp, restricted=True)
    gaps = [restricted[a][b] - oracle.expectation[a][b] for a, b in cells]
    verdicts = {
        "entry_means_match_expectation": _within(worst),
        "law_matches_lemma_oracle": law.expectation() == [list(r) for r in oracle.expectation],
        "bias_within_nonqualifying_bound": min(gaps) >= 0 and sum(gaps) <= oracle.nonqualifying,
    }
    results = {
        "n": stream.n,
        "m": stream.m,
        "kappa": sp.kappa,
        "eps": sp.eps,
        "ell": ell,
        "big_m": plan.big_m,
        "expectation": [list(row) for row in oracle.expectation],
        "entry_means": [[gates[a, b]["value"] for b in range(ell)] for a in range(ell)],
        "entry_sigmas": [[gates[a, b]["sigma"] for b in range(ell)] for a in range(ell)],
        "restricted_counts": [list(r) for r in restricted],
        "in_class": oracle.in_class,
        "qualifying": oracle.qualifying,
        "nonqualifying": oracle.nonqualifying,
    }
    return results, verdicts, {"entry_means_match_expectation": worst}


def random_script(
    universe: UniverseSpec, rng: np.random.Generator, max_len: int
) -> list[ScriptOp]:
    """Uniform small script mixing swaps, rotations, and both query kinds."""
    size = universe.size
    ops: list[ScriptOp] = []
    block = universe.blocks[0].name
    for _ in range(int(rng.integers(1, max_len + 1))):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            a, b = rng.choice(size, size=2, replace=False)
            ops.append(Update(swap_perm(universe, (int(a), int(b)))))
        elif kind == 1:
            amount = int(rng.integers(1, size))
            ops.append(
                Update(PermutationSpec(universe, (CyclicShift(block, amount, ()),)))
            )
        elif kind == 2:
            ops.append(QueryOne(int(rng.integers(0, size))))
        else:
            a, b = rng.choice(size, size=2, replace=False)
            ops.append(QueryPair(int(a), int(b)))
    return ops


EQUIVALENCE_TOLERANCE = 1e-9  # the two backends' laws differ by float rounding only


def _run_equivalence(_instance, trials, seed, universe, max_size, max_len):
    if universe < 1 or max_size < 1 or max_len < 1:
        raise ConfigError("equivalence needs positive universe, max_size, max_len")

    spec = UniverseSpec((Block("v", (IntRange(1, universe),)),))
    sizes = range(1, min(max_size, universe) + 1)
    total = sum(math.comb(universe, size) for size in sizes)
    # script i starts from subset i mod total, in order of size and then of
    # itertools.combinations; only the subsets that some script reaches are built
    subsets = list(itertools.islice(
        itertools.chain.from_iterable(itertools.combinations(range(universe), s) for s in sizes),
        trials,
    ))

    max_tv = 0.0
    for i in range(trials):
        members = subsets[i % total]
        script = random_script(spec, purpose_rng("equivalence", seed, i), max_len)
        classical = enumerate_distribution(spec, members, script)
        quantum = enumerate_distribution(spec, members, script, "quantum")
        max_tv = max(max_tv, classical.tv(quantum))

    gate = {"oracle": 0.0, "value": max_tv, "sigma": EQUIVALENCE_TOLERANCE / 4}
    verdicts = {
        "max_tv_within_tolerance": max_tv <= EQUIVALENCE_TOLERANCE,
        "every_subset_exercised": len(subsets) == total,
    }
    results = {
        "universe": universe,
        "max_size": max_size,
        "max_len": max_len,
        "subsets_total": total,
        "subsets_covered": len(subsets),
        "scripts": trials,
        "max_tv": max_tv,
        "tolerance": EQUIVALENCE_TOLERANCE,
    }
    return results, verdicts, {"max_tv_within_tolerance": gate}


# -- the algorithm table ------------------------------------------------------------

AS_GIVEN = object()  # the default of a required param that is not an integer

# One entry per algorithm: the parse_stream kind and the type of its instance
# (None and None when it takes no instance), its runner, called as
# runner(instance, trials, seed, **params) for (results, verdicts, gates), and
# each param's default (REQUIRED or AS_GIVEN when it has none).
Algorithm = collections.namedtuple("Algorithm", "stream_kind instance_type runner params")
EXPERIMENTS = {
    "bhm": Algorithm("bhm", BhmInstance, _run_bhm, dict(meta_trials=0, copies=None)),
    "triangle": Algorithm("undirected", EdgeStream, _run_triangle, dict(k=REQUIRED)),
    "heavy": Algorithm("directed", DirectedEdgeStream, _run_heavy,
                       dict(d_H=REQUIRED, d_T=REQUIRED)),
    "snapshot": Algorithm("directed", DirectedEdgeStream, _run_snapshot, dict(
        kappa=REQUIRED, eps=AS_GIVEN, thresholds=AS_GIVEN, alpha=REQUIRED, beta=REQUIRED,
        capacity_c=32, hash_seed=None)),
    "equivalence": Algorithm(None, None, _run_equivalence, dict(universe=8, max_size=4, max_len=5)),
}
ALGORITHMS = tuple(EXPERIMENTS)


def _read_params(name: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Each param of algorithm ``name``, from ``params`` or its default.

    ``ConfigError`` names the algorithm and field of a missing required, a
    non-integral integer, or an unknown param.
    """
    given = dict(params)
    values = {
        field: _required(name, given, field) if default is AS_GIVEN
        else _int_param(name, given, field, default)
        for field, default in EXPERIMENTS[name].params.items()
    }
    _reject_extras(name, given, role="experiment")
    return values


# -- top-level dispatch --------------------------------------------------------------


def seed_override(seed: int) -> int:
    """``PAIRSKETCH_SEED`` from the environment when it is set, else ``seed``."""
    env = os.environ.get(SEED_ENV)
    try:
        return seed if env is None else int(env)
    except ValueError:
        raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from None


def run_experiment(config: ExperimentConfig) -> Report:
    """Run one seeded experiment and return (and optionally write) its report.

    ``PAIRSKETCH_SEED`` in the environment overrides the config master seed;
    the override is echoed in the report so the bytes stay reproducible.
    """
    config = dataclasses.replace(config, master_seed=seed_override(config.master_seed))
    instance = _load_instance(config)
    params = _read_params(config.algorithm, config.params)
    results, verdicts, gates = EXPERIMENTS[config.algorithm].runner(
        instance, config.trials, config.master_seed, **params
    )
    results["gates"] = gates
    report = Report(
        schema_version=SCHEMA_VERSION,
        config=config.to_dict(),
        results=results,
        verdicts=dict(sorted(verdicts.items())),
    )
    if config.output is not None:
        emit_report(report, config.output)
    return report
