"""Compiled kernel tier for the paper's randomized-excess rounding.

The batched engine's randomized-excess rounds are dominated by the
excess-token dispatch (a per-token scatter over each node's incident
edges) and by elementwise numpy passes over ``(m, B)`` planes (schedule,
round, apply); its record rounds by axis-0 reductions over ``(n, B)``
planes whose inner loops are only ``B`` wide.  The staleness engine's
rounds are the same dispatch over positive arcs plus numpy passes over
``(n_arcs, B)`` arc planes (delayed views, shipment rings, link drops,
deliveries).  This package provides *fused* single-pass implementations
of all three behind one provider API, selected by ``EngineConfig.kernel``
(the batched and staleness engines honour it; only the cffi provider has
a staleness round):

* ``"cffi"`` — the kernels in C, compiled once through cffi with the
  system compiler (:mod:`._cffi`), cached on disk (the first process on
  a cold cache pays a one-time compile of a few seconds);
* ``"python"`` — a pure numpy/python reference provider (:mod:`._python`)
  that validates the orchestration without any compiler (a test oracle;
  the CLI does not offer it);
* ``"auto"`` (the default) — the cffi provider where it measurably pays
  and the numpy tier everywhere else, decided per batch shape by
  :func:`compiled_pays`: ``randomized-excess`` with ``B >= 2`` replicas
  and ``n * B >= 1024``.  A pool or shard worker applies the rule to its
  own shard width.  A shape the rule gives to numpy is not a fallback:
  it loads no provider and logs nothing; only a missing cffi provider
  logs a one-time line.  Loading a compiled provider switches the
  process's later shard and pool workers from ``fork`` to ``forkserver``
  (:func:`fork_unsafe_loaded`), and each such worker caps its compiled
  kernels at its share of the CPUs (:func:`limit_threads`);
* ``"numpy"`` — the engine's own vectorised kernels (no provider).

The providers cover ``randomized-excess`` only: a forced ``"cffi"`` or
``"python"`` on any other rounding raises
:class:`~repro.exceptions.ConfigurationError`, and so does a forced
``"cffi"`` on a staleness run with a fault model other than
``RandomLinkDrop`` or with one fault generator shared by every replica
(:func:`kernel_blockers`; ``"auto"`` runs those on the numpy step).  The
elementwise roundings
(``floor``/``nearest``/``ceil``/``unbiased-edge``) are one vectorised
numpy expression each; their compiled bodies lost on one thread and near
the ``auto`` threshold (0.55-1.13x, docs/benchmarks.md), won only on two
threads at ``n * B`` ~ 10^5 (up to ~1.6x), and ``auto`` never picked
them, so they run on numpy only.

Every provider is **bit-identical** to the numpy tier: it replays the
exact elementwise expression trees and the exact CSR accumulation order,
and the token scatter draws each token's uniform from its replica's own
:func:`~repro.engines.base.rounding_stream` numpy generator, node-ascending
within a replica — the numpy tier's order, so every generator ends a
round in the same state on both tiers (the cffi provider draws in C
through numpy's public ``bitgen_t``, as ``Generator.random`` does).
The record walk is serial and adds every sum in row order in the array
dtype — numpy's order for an axis-0 sum over a C-contiguous ``(rows, B)``
plane with ``B > 1``.  For ``B == 1`` numpy sums pairwise instead, so the
engine keeps single-replica record rounds on numpy (a max local
difference, which no summation order touches, still walks).
The contract is enforced by ``tests/engines/test_compiled.py``.

Provider API (all arrays C-contiguous, loads/flows ``(n, B)``/``(m, B)``
in the engine's dtype; ``consts = [0.0, 1.0, frac_tol, 0.5]`` in that
dtype so no float literal ever enters the kernels at a foreign precision;
the edge/adjacency index arrays ``eu``/``ev``/``adj_edges`` are
**int32** — half the index traffic of the memory-bound large-n runs —
and so are the ``(n, B)`` token budgets ``counts`` (a budget is below
``dmax``), while the per-replica ``totals`` are int64 and ``adj_signs``
is int8.  The
padded adjacency ``(adj_edges, adj_signs)`` is the topology's CSR
adjacency in ``(n, dmax)`` slots: row ``i`` lists node ``i``'s edges in
CSR order, then trailing padding slots ``e == m`` with sign 0; a real
slot's sign is +1 where ``i`` is the edge's u endpoint and -1 where it
is v, so its incidence sign, the entry of ``D``, is ``-adj_signs``):

* ``round_edges(eu, ev, load, speeds, flows, act, fsg, alpha, ar, ac,
  beta, bm1, bs, mode, consts)`` — fused schedule + round:
  mode 0 is the round-0 FOS opener ``s = (nu - nv) * alpha``, mode 1 the
  SOS update ``s = flows * (beta - 1) + ((nu - nv) * alpha) * beta``,
  mode 2 the fused-operator form ``s = flows * bm1 + c * nu + (-c) * nv``
  with the per-edge coefficient ``c = alpha_e * scale`` the numpy tier
  folds into ``E_alpha[_beta]``: the engine passes one ``(m,)`` row per
  scale, or one entry with ``ar = 0`` when every edge has the same alpha.
  ``(ar, ac)`` / ``bs`` are element strides into the flat ``alpha`` /
  ``beta`` rows.  It writes the signed base ``act = trunc(s)`` and the
  signed fractional parts
  ``fsg = s - act``.  ``fsg`` may be ``flows`` itself: each flow row is
  read, then overwritten with its fractions (the engine's flows are
  spent once scheduled, so the batch keeps two ``(m, B)`` planes, not
  three); otherwise ``fsg`` overlaps no input, and ``act`` never does.
* ``excess_counts(adj_edges, adj_signs, dmax, m, fsg, counts, totals,
  consts)`` — per-(node, replica) token budgets ``ceil(r - tol)``, into
  the int32 ``(n, B)`` plane ``counts``, from a walk of the padded
  adjacency (slot ``e == m`` is padding), plus the per-replica token
  totals reduced into ``totals``.
* ``bind_generators(rngs)`` — the replicas' generators (one
  ``numpy.random.Generator`` per replica, no two on one bit generator)
  in the form ``excess_dispatch`` takes them; bind once per batch and
  again after the columns change.
* ``excess_dispatch(adj_edges, adj_signs, dmax, m, fsg, counts, rngs, act,
  cums, consts)`` — serial token scatter: node ``i``'s ``counts[i, b]``
  tokens each draw one uniform from ``rngs[b]`` (bound or a plain
  sequence), node after node, so each stream is consumed node-ascending
  — exactly the numpy tier's order.  ``counts`` is ``excess_counts``'s
  output for this ``fsg``; padding slots trail each node's real ones.
  ``cums`` is caller-owned ``(dmax, B)`` scratch for one node's
  cumulative slot fractions.
* ``apply_flows(adj_edges, adj_signs, dmax, m, act, load)`` — the
  incidence accumulation ``load[i] += sum(-adj_signs * act[adj_edges])``
  over node ``i``'s slots up to its padding, replaying scipy's
  ``csr_matvecs`` per-row sequential order over ``D``.
* ``record_walk(adj_edges, adj_signs, dmax, eu, act, load, targets, tile,
  metrics, mld, info, out, consts)`` — a record round in one serial,
  node-ascending walk of the padded adjacency (``m = eu.size``).  With
  ``act``, node ``i`` first takes ``apply_flows``' update as
  ``delta = D @ act`` and ``outgoing = W @ |act|``, each from zero:
  ``info[0]`` is the min transient ``load - (outgoing - delta) * 0.5``
  and ``info[1]`` the traffic ``sum |act|``, added at each edge's u
  endpoint, i.e. in edge order.  Then, on its new load, ``metrics``
  fills rows 0-4 of ``out`` (max and min of ``load - targets``, the sum
  of its squares, min load, total), reduced per tile of ``tile`` nodes
  and folded tile by tile as the engine's tiled numpy reductions fold
  them, and ``mld`` row 5, the max ``|x_u - x_v|``, taken at each edge's
  v endpoint, whose u endpoint already holds its final load.
  ``targets`` is a ``(1, B)`` row, an ``(n, 1)`` column or an ``(n, B)``
  plane.  ``act=None`` applies nothing and writes no ``info`` (which may
  be ``None``).  Rows a call does not compute keep their values; the walk
  allocates no ``(n, B)`` or ``(m, B)`` scratch.

The staleness round (cffi only, float64 only; ``na`` arcs ``src -> dst``
in CSR order ``indptr``, and ``excess_dispatch`` in between on the arc
layout: ``adj_edges`` = each node's outgoing arcs padded with ``na``,
every ``adj_signs`` entry +1, ``m = na``, ``fsg = frac`` and the ``base``
plane as ``act``; its ring and arc index arrays are int64; neither entry
point runs an OpenMP region, whose spinning team slowed the serial
kernels after it several times over on 2 vCPUs):

* ``stale_schedule(ring, slot, load, speeds, view_rows, indptr, alpha,
  prev, beta, bm1, sos_cols, flow, base, frac, counts, totals, consts)``
  — the announce ``ring[slot] = load / speeds``, the delayed views
  ``ring`` rows ``view_rows``, the schedule ``flow = (x_src - view) *
  alpha`` (on the columns where the float64 row ``sos_cols`` is non-zero
  ``prev * bm1 + flow * beta``; ``None`` on FOS rounds), its positive
  part ``max(flow, 0) + 0.0`` split into ``base = floor`` and
  ``frac = rest``, and ``excess_counts``' ``counts`` and ``totals`` of
  ``frac`` on the arc layout (same summation chain).
* ``stale_ship(slot_b, load, flow, amt, prev, edge, ship, ship_rows,
  arrive, bounce, bounce_land, pending, indptr, arc_edge, rev, arc_of_lo,
  arc_of_hi, gens, p_drop, picks, in_flight, messages, delivered,
  bounced, consts)`` — in the numpy step's phase order: the per-edge flow
  record ``edge``, the send deduction and in-flight ledger, the shipment
  ring ``ship`` (flat rows ``ship_rows``), ``RandomLinkDrop`` draws (one
  ``next_double`` per emitted arc from each replica's bound fault
  generator ``gens``, replica after replica, arcs ascending: the numpy
  tier's ``rng.random(k) < p_drop``; ``picks`` is ``(B, na)`` int32
  scratch; ``gens=None`` draws nothing), dropped shipments onto the
  ``bounce`` ring at ``bounce_land`` (``pending`` counts them per slot),
  ``prev = amt``, the bounces due in slot ``slot_b``, then the
  deliveries out of ``arrive`` (the ring slot landing this round), which
  it zeroes.  Every node sum runs from +0.0 in arc order.
"""

from __future__ import annotations

import importlib.util
import logging
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "HAVE_CFFI",
    "KERNEL_CHOICES",
    "compiled_pays",
    "ensure_warm",
    "fork_unsafe_loaded",
    "get_provider",
    "kernel_blockers",
    "limit_threads",
    "resolve_kernel",
    "warm_up_kernels",
]

logger = logging.getLogger("repro.kernels")

#: Valid ``EngineConfig.kernel`` values.
KERNEL_CHOICES = ("numpy", "cffi", "python", "auto")

#: Whether cffi is importable (a spec check: importing it costs time).
HAVE_CFFI = importlib.util.find_spec("cffi") is not None

#: Provider cache: name -> provider instance, or None when the provider
#: failed to import/build (the failure is memoised, not retried).
_PROVIDERS: Dict[str, Optional[object]] = {}

#: Providers already exercised by :func:`ensure_warm` in this process.
_WARMED = set()

_FALLBACKS_LOGGED = set()

#: Thread cap of the compiled providers in this process (None: the
#: threading runtime's own default), set by :func:`limit_threads`.
_THREAD_LIMIT: Optional[int] = None


def get_provider(name: str):
    """The named provider instance, or ``None`` when unavailable.

    Import/build failures are logged at debug level and memoised so a
    missing compiler is probed exactly once per process.
    """
    if name in _PROVIDERS:
        return _PROVIDERS[name]
    if name == "python":
        from . import _python as mod
    elif name == "cffi":
        mod = None
        if HAVE_CFFI:
            try:
                from . import _cffi as mod
            except Exception as exc:  # pragma: no cover - env dependent
                logger.debug("cffi provider unavailable: %s", exc)
                mod = None
    else:
        raise ValueError(f"unknown kernel provider {name!r}")
    provider = None
    if mod is not None:
        try:
            provider = mod.make_provider()
        except Exception as exc:  # pragma: no cover - env dependent
            logger.debug("kernel provider %r failed to build: %s", name, exc)
            provider = None
    if provider is not None and provider.compiled and _THREAD_LIMIT:
        provider.limit_threads(_THREAD_LIMIT)
    _PROVIDERS[name] = provider
    return provider


def limit_threads(k: int) -> None:
    """Cap the threads of every compiled provider in this process at ``k``.

    Shard and pool workers call this with their share of the CPUs, so W
    workers never run W full OpenMP teams on one machine.  Applies to the
    providers already loaded and to those loaded later; a lower runtime
    default (``OMP_NUM_THREADS``) stays in force.  Thread count never
    changes a result.
    """
    global _THREAD_LIMIT
    _THREAD_LIMIT = int(k)
    for provider in _PROVIDERS.values():
        if provider is not None and provider.compiled:
            provider.limit_threads(_THREAD_LIMIT)


def fork_unsafe_loaded() -> bool:
    """Whether this process has loaded a compiled provider.

    Compiled loops run on a threading runtime (OpenMP), which, once it has
    run a parallel region, deadlocks in a ``fork`` child that enters one
    again, so the worker pools stop using ``fork`` from then on (see
    ``repro.engines.sharded._start_method``).
    """
    return any(p is not None and p.compiled for p in _PROVIDERS.values())


def kernel_blockers(config, m_edges: int) -> List[str]:
    """Why this config cannot run a compiled kernel (empty when it can)."""
    blockers = []
    if config.rounding != "randomized-excess":
        blockers.append(
            f"rounding {config.rounding!r} (the compiled tier covers "
            "randomized-excess only; the other roundings run on the numpy "
            "tier)"
        )
    if m_edges == 0:
        blockers.append("an edgeless topology (no edge-wise hot loop exists)")
    if getattr(config, "faults", None) is not None:
        # Only the staleness engine honours faults; its compiled round
        # draws RandomLinkDrop's uniforms, one stream per replica.
        from ..engines.base import parse_faults_spec
        from ..network.faults import NoFaults, RandomLinkDrop

        model = parse_faults_spec(config.faults)
        if not isinstance(model, (NoFaults, RandomLinkDrop)):
            blockers.append(
                f"fault model {type(model).__name__} (the compiled "
                "staleness round covers RandomLinkDrop only)"
            )
        elif isinstance(model, RandomLinkDrop) and model.rng is not None:
            blockers.append(
                "a shared fault generator (a RandomLinkDrop built with its "
                "own rng keeps it for every replica; the compiled staleness "
                "round draws each replica's own stream)"
            )
    return blockers


def _log_fallback_once(key, message: str) -> None:
    if key not in _FALLBACKS_LOGGED:
        _FALLBACKS_LOGGED.add(key)
        logger.info(message)


def compiled_pays(
    rounding: str, n_nodes: int, m_edges: int, n_replicas: int
) -> bool:
    """Whether ``kernel="auto"`` runs this batch shape on a compiled provider.

    The one measured rule (2 vCPUs, numpy 2.4.6, torus SOS; the
    per-rounding table is in docs/benchmarks.md): ``randomized-excess``
    with ``B >= 2`` and ``n * B >= 1024``.  On token-rich batches the
    compiled excess scatter is 1.45-2.8x faster per round than the numpy
    dispatch.  Near the threshold it is about 1.1x (0.86-1.33x at
    ``n * B`` 1024-2048), which saves ~0.02 ms per round; below it the
    saving shrinks to a few microseconds and does not repay loading the
    provider (~10 ms per process, which also moves the process's later
    workers to ``forkserver``) within runs of a few hundred rounds, and
    the default two-thread OpenMP team loses at ``n * B <= 128``
    (0.63-1.0x).  Single-replica runs lose (0.68-0.97x).  The other
    roundings have no compiled kernel.
    """
    return (
        rounding == "randomized-excess"
        and m_edges > 0
        and n_replicas >= 2
        and n_nodes * n_replicas >= 1024
    )


def resolve_kernel(config, n_nodes: int, m_edges: int, n_replicas: int):
    """Resolve ``config.kernel`` to a provider instance or ``None`` (numpy)
    for a batch of ``n_replicas`` columns on ``n_nodes``/``m_edges``.

    Forced providers (``"cffi"``/``"python"``) raise
    :class:`~repro.exceptions.ConfigurationError` when the config is
    blocked or the provider is unavailable, naming the ``[compiled]`` pip
    extra.  ``"auto"`` returns a provider only where :func:`compiled_pays`
    says so and never loads one elsewhere; when the rule picks a provider
    that is unavailable it falls back to the numpy tier with a one-time
    ``repro.kernels`` log line.
    """
    name = config.kernel
    if name == "numpy":
        return None
    if name not in KERNEL_CHOICES:
        raise ConfigurationError(
            f"kernel must be one of {KERNEL_CHOICES}, got {name!r}"
        )
    if name == "auto":
        if not compiled_pays(
            config.rounding, n_nodes, m_edges, n_replicas
        ) or kernel_blockers(config, m_edges):
            return None
        provider = get_provider("cffi")
        if provider is not None:
            return provider
        _log_fallback_once(
            ("missing",),
            "kernel='auto' falls back to the numpy tier: no compiled "
            "provider is available (pip install 'repro-lb[compiled]' for "
            "the cffi tier)",
        )
        return None
    blockers = kernel_blockers(config, m_edges)
    if blockers:
        raise ConfigurationError(
            f"kernel={name!r} is blocked by " + " and ".join(blockers)
        )
    provider = get_provider(name)
    if provider is None:
        raise ConfigurationError(
            f"kernel={name!r} is unavailable: the {name} provider failed "
            "to import or build (install the compiled extra: "
            "pip install 'repro-lb[compiled]')"
        )
    _warn_dynamic_clamp(config, name)
    return provider


def _warn_dynamic_clamp(config, provider_name: str) -> None:
    """One-time notice that dynamic runs clamp arrivals in numpy.

    The compiled tier covers the static hot loop; the per-round arrival
    clamp of dynamic runs has no compiled kernel yet, so a forced
    provider still executes that pass in numpy.  Saying so once keeps
    bench readers from crediting the clamp to the provider.
    """
    if getattr(config, "arrivals", None) is not None:
        _log_fallback_once(
            ("dynamic-clamp", provider_name),
            f"kernel={provider_name!r} covers the static hot loop only: "
            "the dynamic arrival-clamp pass runs in the numpy tier "
            "(compiled clamp coverage is a ROADMAP item)",
        )


def _warm_provider(provider) -> None:
    """Exercise every provider entry point on a tiny two-node problem.

    Triggers compilation outside any measured loop (both dtypes, all
    schedule modes, the excess passes, the apply pass and the record
    walk).  The warm-up draws no engine randomness
    — every buffer is built locally.
    """
    eu = np.array([0], dtype=np.int32)
    ev = np.array([1], dtype=np.int32)
    adj_edges = np.array([0, 0], dtype=np.int32)
    adj_signs = np.array([1, -1], dtype=np.int8)
    for dtype in (np.float64, np.float32):
        consts = np.array([0.0, 1.0, 1e-9, 0.5], dtype=dtype)
        load = np.array([[7.5], [2.0]], dtype=dtype)
        speeds = np.array([1.0, 2.0], dtype=dtype)
        flows = np.zeros((1, 1), dtype=dtype)
        act = np.zeros((1, 1), dtype=dtype)
        fsg = flows  # the engine's in-place form: fractions over the flows
        alpha = np.array([0.25], dtype=dtype)
        beta = np.array([1.5], dtype=dtype)
        bm1 = np.array([0.5], dtype=dtype)
        for mode in (0, 1, 2):
            provider.round_edges(
                eu, ev, load, speeds, flows, act, fsg,
                alpha, 0, 0, beta, bm1, 0, mode, consts,
            )
        counts = np.zeros((2, 1), dtype=np.int32)
        totals = np.zeros(1, dtype=np.int64)
        provider.excess_counts(
            adj_edges, adj_signs, 1, 1, fsg, counts, totals, consts
        )
        provider.excess_dispatch(
            adj_edges, adj_signs, 1, 1, fsg, counts,
            provider.bind_generators([np.random.default_rng(0)]), act,
            np.empty((1, 1), dtype=dtype), consts,
        )
        provider.apply_flows(adj_edges, adj_signs, 1, 1, act, load.copy())
        for targets, walked in ((load[:1], act), (load, None)):
            provider.record_walk(
                adj_edges, adj_signs, 1, eu, walked, load.copy(), targets, 1,
                True, True, np.empty((2, 1), dtype=dtype),
                np.empty((6, 1), dtype=dtype), consts,
            )


def ensure_warm(provider) -> None:
    """Warm the provider once per process (lazy first-compiled-run hook)."""
    if provider.name in _WARMED:
        return
    _warm_provider(provider)
    _WARMED.add(provider.name)


def warm_up_kernels(names=None) -> Dict[str, bool]:
    """Warm every requested provider; returns ``{name: available}``.

    Benchmarks call this explicitly so compile time never pollutes
    the measured rounds/sec; the engine calls :func:`ensure_warm` lazily
    on the first compiled run.
    """
    results: Dict[str, bool] = {}
    for name in names if names is not None else ("python", "cffi"):
        provider = get_provider(name)
        if provider is None:
            results[name] = False
            continue
        ensure_warm(provider)
        results[name] = True
    return results
