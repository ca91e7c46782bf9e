"""Command-line front end.

Subcommands: gen, psi, trail, pedestrian, zeta, exact-f, adversary, bounds,
verify, experiment.  Single runs emit JSON transcripts, campaigns emit CSV
with a leading ``# schema=`` comment; both are deterministic for fixed
flags and seed (the wall_ms CSV column excepted).

Exit codes: 0 success; 2 usage or parse error; 3 precondition violation
(bad file, bad parameter, failed verification or soundness check); 4 budget
exhaustion, with partial output still emitted.

Each flag declares its default on itself.  ``--config FILE`` (one
``key=value`` per line, keys named like the long flags, switches as
true/false) turns its entries into the chosen subcommand's flag defaults, so
explicit flags still win; keys that name no flag of that subcommand are
ignored.

Most subcommands run in one of several modes (a ``gen`` family, an ordering
spec, a ``bounds`` switch, a campaign, ...).  ``_MODES`` says how to read the
mode and which mode-dependent flags each mode reads; a flag the mode does not
read exits 3 unless it keeps its default, which a ``--config`` entry sets.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .adversary import local_search_min_psi, upper_bound_report
from .bounds import (
    gnp_certificate,
    graham_kleitman,
    hypercube_bounds,
    sweep_inequality_6,
    verify_inequality_6,
)
from .density import hypercube_zeta_bound_check, zeta, zeta_greedy
from .exactf import exact_f
from .experiments import experiment_gnp, experiment_hypercube
from .graphs import (
    Graph,
    SoundnessError,
    hypercube_dimension,
    make_complete,
    make_cycle,
    make_hypercube,
    make_matching,
    make_path,
    make_star,
    parse_graph,
    sample_gnp,
    serialize_graph,
)
from .orderings import (
    EdgeOrdering,
    coloring_ordering,
    greedy_edge_coloring,
    hypercube_dimension_coloring,
    identity_ordering,
    parse_ordering,
    random_ordering,
    serialize_ordering,
)
from .paths import longest_increasing_path, longest_increasing_trail, verify_witness
from .pedestrian import (
    PedestrianTranscript,
    check_invariants,
    run_pedestrian,
    sqrt_degree_floor,
    verify_counting,
    verify_coverage,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

_COUNTS = ("budget", "psi_budget", "steps")  # must be >= 0


def _parse_bool(s: str) -> bool:
    if s.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected a switch value (true/false, yes/no, on/off, 1/0), got {s!r}")
    return s.lower() in ("1", "true", "yes", "on")


def _load_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, ln in enumerate(Path(path).read_text().splitlines(), start=1):
        s = ln.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"config line {lineno}: expected key=value, got {s!r}")
        key, _, value = s.partition("=")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    (commands,) = (a for a in parser._actions if a.dest == "command")
    return commands.choices[command]


def _set_config_defaults(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Make the ``--config`` entries the chosen subcommand's flag defaults.

    Each value is converted by its flag's own ``type``, or read as a boolean
    for a switch; keys that name no flag of the subcommand are ignored.
    """
    sub = _subparser(parser, args.command)
    flags = {a.dest: a for a in sub._actions}
    sub.set_defaults(**{
        key: _parse_bool(raw) if flags[key].nargs == 0 else (flags[key].type or str)(raw)
        for key, raw in _load_config(args.config).items()
        if key in flags
    })


def _read_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def _resolve_ordering(g: Graph, spec: str, seed: int) -> EdgeOrdering:
    if spec == "identity":
        return identity_ordering(g)
    if spec == "rand":
        return random_ordering(g, seed)
    if spec == "coloring":
        return coloring_ordering(g, greedy_edge_coloring(g), seed)
    if spec == "dimension":
        return coloring_ordering(g, hypercube_dimension_coloring(g), seed)
    if spec.startswith("file:"):
        ordering = parse_ordering(Path(spec[5:]).read_text())
        if ordering.m != g.m:
            raise ValueError("ordering file does not match the graph's edge count")
        return ordering
    raise ValueError(
        f"unknown ordering {spec!r}: use identity, rand, coloring, dimension, or file:PATH"
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2), out)


def _graph_and_ordering(args: argparse.Namespace, schema: str) -> tuple[Graph, EdgeOrdering, dict]:
    """Read --graph, resolve --ordering, and start the command's JSON payload."""
    g = _read_graph(args.graph)
    phi = _resolve_ordering(g, args.ordering, args.seed)
    return g, phi, {
        "schema": schema,
        "n": g.n,
        "m": g.m,
        "ordering": args.ordering,
        "seed": args.seed,
    }


def _pedestrian_battery(g: Graph, phi: EdgeOrdering, t: PedestrianTranscript) -> tuple:
    """Check the invariants; return the coverage and counting reports and the
    sqrt-degree floor."""
    check_invariants(g, phi, t)
    return verify_coverage(g, t), verify_counting(g, t), sqrt_degree_floor(g)


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def _ordering_mode(args: argparse.Namespace) -> str:
    return "file" if args.ordering.startswith("file:") else args.ordering


def _zeta_mode(args: argparse.Namespace) -> str:
    if (args.k is None) == (args.ks is None):
        raise ValueError("pass exactly one of --k and --ks")
    return "greedy" if args.greedy else "exact"


def _bounds_mode(args: argparse.Namespace) -> str:
    modes = _MODES["bounds"][1]
    chosen = [mode for mode in modes if getattr(args, mode)]
    if len(chosen) != 1:
        raise ValueError(f"pick one of --{', --'.join(modes)}; {len(chosen)} given")
    return chosen[0]


_ORDERING_MODES = {
    "identity": (), "file": (), "rand": ("seed",), "coloring": ("seed",), "dimension": ("seed",),
}

# For each subcommand with modes: how to read the mode from the parsed
# arguments, and the flags each mode reads among those that some mode of the
# subcommand does not read (every mode reads the flags listed for none).
# gen lists each family's flags in its constructor's argument order.
_MODES = {
    "gen": (lambda args: args.family, {
        "complete": ("n",), "hypercube": ("d",), "path": ("n",), "cycle": ("n",),
        "star": ("leaves",), "matching": ("k",), "gnp": ("n", "p", "seed"),
    }),
    "psi": (_ordering_mode, _ORDERING_MODES),
    "trail": (_ordering_mode, _ORDERING_MODES),
    "pedestrian": (_ordering_mode, _ORDERING_MODES),
    "verify": (_ordering_mode, _ORDERING_MODES),
    "zeta": (_zeta_mode, {"greedy": ("seed",), "exact": ("budget",)}),
    "adversary": (lambda args: "portfolio" if args.portfolio else "anneal",
                  {"anneal": ("ordering",), "portfolio": ("restarts",)}),
    "bounds": (_bounds_mode, {"gk": ("n",), "hypercube": ("d",), "ineq6": ("d",),
                              "sweep6": ("lo", "hi"), "gnp": ("n", "p", "omega", "eps")}),
    "experiment": (lambda args: args.campaign, {
        "hypercube": ("d_max",), "gnp": ("n_list", "p", "omega", "eps", "trials", "psi_budget"),
    }),
}


def _reject_unread_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Raise ValueError on a flag the run's mode does not read, unless it
    keeps its default in ``parser``, the parser that parsed ``args``.

    Reading the mode also rejects two mode-selecting values given together.
    """
    if args.command not in _MODES:
        return
    mode_of, modes = _MODES[args.command]
    mode = mode_of(args)
    if mode not in modes:  # an unknown ordering spec, which the handler reports
        return
    unread = {flag for flags in modes.values() for flag in flags}.difference(modes[mode])
    for action in _subparser(parser, args.command)._actions:
        if action.dest in unread and getattr(args, action.dest) != action.default:
            raise ValueError(
                f"{args.command} in {mode} mode does not read {action.option_strings[0]}"
            )


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

_FAMILIES = {
    "complete": make_complete,
    "hypercube": make_hypercube,
    "path": make_path,
    "cycle": make_cycle,
    "star": make_star,
    "matching": make_matching,
    "gnp": sample_gnp,
}


def _cmd_gen(args: argparse.Namespace) -> int:
    flags = _MODES["gen"][1][args.family]
    g = _FAMILIES[args.family](*[_require(args, name) for name in flags])
    _emit(serialize_graph(g), args.out)
    return EXIT_OK


def _require(args: argparse.Namespace, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise ValueError(f"--{name.replace('_', '-')} is required for this invocation")
    return value


def _cmd_psi(args: argparse.Namespace) -> int:
    g, phi, payload = _graph_and_ordering(args, "altitude/psi/1")
    res = longest_increasing_path(g, phi, budget=args.budget)
    if args.verify:
        verify_witness(g, phi, res)
    payload.update(
        length=res.length,
        exact=res.exact,
        explored=res.explored,
        vertices=list(res.vertices),
        edges=list(res.edges),
    )
    _emit_json(payload, args.out)
    return EXIT_OK if res.exact else EXIT_BUDGET


def _cmd_trail(args: argparse.Namespace) -> int:
    g, phi, payload = _graph_and_ordering(args, "altitude/trail/1")
    res = longest_increasing_trail(g, phi)
    if args.verify:
        verify_witness(g, phi, res)
    payload.update(length=res.length, vertices=list(res.vertices), edges=list(res.edges))
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_pedestrian(args: argparse.Namespace) -> int:
    g, phi, payload = _graph_and_ordering(args, "altitude/pedestrian/1")
    t = run_pedestrian(g, phi)
    payload.update(
        paths=[list(p) for p in t.paths],
        swap_log=[[e, s] for e, s in t.swap_log],
        final_position=list(t.final_position),
        max_path_edges=t.max_path_edges,
    )
    status = EXIT_OK
    if args.verify:
        cov, cnt, floor = _pedestrian_battery(g, phi, t)
        payload["verification"] = {
            "coverage": cov.ok,
            "counting_lhs": cnt.lhs,
            "counting_rhs": str(cnt.rhs),
            "counting_holds": cnt.holds,
            "sqrt_floor": floor,
            "floor_ok": t.max_path_edges >= floor,
        }
        if not (cov.ok and cnt.holds and t.max_path_edges >= floor):
            status = EXIT_PRECONDITION
    _emit_json(payload, args.out)
    return status


def _cmd_zeta(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    ks = [args.k] if args.ks is None else [int(tok) for tok in args.ks.split(",") if tok]
    if not ks:
        raise ValueError("--ks lists no k value")
    d = hypercube_dimension(g)
    lines = ["# schema=altitude/zeta/1", "graph,k,zeta,exact,bound_rhs,bound_holds"]
    any_inexact = False
    gid = Path(args.graph).name
    for k in ks:
        r = zeta_greedy(g, k, args.seed) if args.greedy else zeta(g, k, args.budget)
        value, exact = r.value, r.exact
        any_inexact |= not exact
        if d is not None and d >= 1:
            rhs = k * math.log2(k) / 2
            holds = hypercube_zeta_bound_check(k, value) if exact else None
            bound_rhs, bound_holds = f"{rhs:.6g}", ("" if holds is None else str(holds).lower())
        else:
            bound_rhs, bound_holds = "", ""
        lines.append(f"{gid},{k},{value},{str(exact).lower()},{bound_rhs},{bound_holds}")
    _emit("\n".join(lines) + "\n", args.out)
    # --greedy is complete as requested; only an exact search can run out
    return EXIT_BUDGET if any_inexact and not args.greedy else EXIT_OK


def _cmd_exact_f(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    res = exact_f(g, budget=args.budget)
    payload = {
        "schema": "altitude/exact-f/3",
        "n": g.n,
        "m": g.m,
        "f": res.value,
        "lower": res.lower,
        "exact": res.exact,
        "explored": res.explored,
        "witness_ranks": list(res.witness.rank),
        "sandwich": {
            "lower": res.bounds.lower,
            "upper": res.bounds.upper,
            "lower_candidates": [[s, v] for s, v in res.bounds.lower_candidates],
            "upper_candidates": [[s, v] for s, v in res.bounds.upper_candidates],
        },
    }
    if args.out:
        _emit_json(payload, args.out)
    if args.ordering_out:
        _emit(serialize_ordering(res.witness), args.ordering_out)
    # printed after the files are written, so a failed write leaves stdout empty
    print(f"f={res.value}" + ("" if res.exact else f" (bracket [{res.lower}, {res.value}])"))
    print("witness: " + " ".join(str(r) for r in res.witness.rank))
    return EXIT_OK if res.exact else EXIT_BUDGET


def _cmd_adversary(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    if args.portfolio:
        restarts = 2 if args.restarts is None else args.restarts
        rep = upper_bound_report(
            g, seed=args.seed, steps=args.steps, restarts=restarts, psi_budget=args.budget
        )
        best_psi, witness, verified = rep.best_psi, rep.witness, rep.verified
        payload = {
            "schema": "altitude/adversary/1",
            "mode": "portfolio",
            "best_psi": best_psi,
            "verified": verified,
            "strategies": [[s, v, e] for s, v, e in rep.strategies],
        }
    else:
        init = _resolve_ordering(
            g, "coloring" if args.ordering is None else args.ordering, args.seed
        )
        trace = local_search_min_psi(g, init, args.steps, args.seed, psi_budget=args.budget)
        best_psi, witness, verified = trace.best_psi, trace.best_ordering, trace.verified
        payload = {
            "schema": "altitude/adversary/1",
            "mode": "anneal",
            "iterations": trace.iterations,
            "best_psi": best_psi,
            "verified": verified,
            "best_history": [[s, v] for s, v in trace.best_history],
        }
    if args.ordering_out:
        _emit(serialize_ordering(witness), args.ordering_out)
    _emit_json(payload, args.out)
    return EXIT_OK if verified else EXIT_BUDGET


def _cmd_bounds(args: argparse.Namespace) -> int:
    payload: dict = {"schema": "altitude/bounds/1"}
    if args.gk:
        lo, hi = graham_kleitman(_require(args, "n"))
        summary = f"{lo:g}, {hi:g}"
        payload.update(name="complete-bracket", n=args.n, lower=lo, upper=hi)
    elif args.hypercube:
        lo, hi = hypercube_bounds(_require(args, "d"))
        summary = f"{lo:.6g}, {hi}"
        payload.update(name="hypercube-bracket", d=args.d, lower=lo, upper=hi)
    elif args.ineq6:
        ok = verify_inequality_6(_require(args, "d"))
        summary = str(ok).lower()
        payload.update(name="hypercube-key-inequality", d=args.d, holds=ok)
    elif args.sweep6:
        ok, failures = sweep_inequality_6(args.lo, args.hi)
        summary = f"all hold in [{args.lo}, {args.hi}]" if ok else f"failures: {failures}"
        payload.update(name="hypercube-key-inequality-sweep", lo=args.lo, hi=args.hi, holds=ok,
                       failures=list(failures))
    else:  # --gnp, the one mode left
        n, p = _require(args, "n"), _require(args, "p")
        k, ub = gnp_certificate(n, p, args.omega, args.eps)
        payload.update(name="gnp-lower", n=n, p=p, omega=args.omega, eps=args.eps, k=k)
        if ub is None:
            summary = "vacuous (k < 1)" if k < 1 else "vacuous (k > n)"
            payload.update(vacuous=True)
        else:
            summary = f"k={k} exponent={ub.exponent:.6g} certifies={str(ub.certifies).lower()}"
            payload.update(
                vacuous=False,
                union_exponent=ub.exponent,
                binomial_exponent=ub.binomial_exponent,
                certifies=ub.certifies,
            )
    if args.out:
        _emit_json(payload, args.out)
    print(summary)  # after the file, so a failed write leaves stdout empty
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g, phi, payload = _graph_and_ordering(args, "altitude/verify/1")
    trail = longest_increasing_trail(g, phi)
    verify_witness(g, phi, trail)
    res = longest_increasing_path(g, phi, budget=args.budget)
    verify_witness(g, phi, res)
    t = run_pedestrian(g, phi)
    cov, cnt, floor = _pedestrian_battery(g, phi, t)
    # the witness and invariant checks raise on failure, so reaching here passes them
    checks = {
        "trail_witness": True,
        "path_witness": True,
        "path_le_trail": res.length <= trail.length,
        "pedestrian_invariants": True,
        "coverage": cov.ok,
        "counting": cnt.holds,
        "pedestrian_floor": t.max_path_edges >= floor,
    }
    if res.exact:
        checks["pedestrian_le_path"] = t.max_path_edges <= res.length
    ok = all(checks.values())
    payload.update(
        psi=res.length,
        psi_exact=res.exact,
        trail=trail.length,
        pedestrian_max=t.max_path_edges,
        checks=checks,
        ok=ok,
    )
    _emit_json(payload, args.out)
    if not ok:
        return EXIT_PRECONDITION
    return EXIT_OK if res.exact else EXIT_BUDGET


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    if args.campaign == "hypercube":
        csv_text = experiment_hypercube(_require(args, "d_max"))
    else:  # gnp; argparse's choices admit no other campaign
        n_list = [int(tok) for tok in _require(args, "n_list").split(",") if tok]
        csv_text = experiment_gnp(
            n_list,
            p=args.p,
            omega=args.omega,
            eps=args.eps,
            trials=args.trials,
            seed=args.seed,
            psi_budget=args.psi_budget,
            workers=args.workers,
        )
    _emit(csv_text, args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser, *, graph: bool = True, seed: bool = True) -> None:
    if graph:
        sp.add_argument("--graph", required=True, help="graph file (n m header + edge lines)")
    sp.add_argument("--config", help="key=value config file (flags take precedence)")
    if seed:
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--out", help="write machine-readable output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="altitude",
        description="Increasing paths in edge-ordered graphs: bounds on the altitude.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a graph file")
    sp.add_argument("--family", required=True, choices=list(_FAMILIES))
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--leaves", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--p", type=float)
    _add_common(sp, graph=False)
    sp.set_defaults(func="_cmd_gen")

    for name, func, extra in (
        ("psi", "_cmd_psi", True),
        ("trail", "_cmd_trail", False),
        ("pedestrian", "_cmd_pedestrian", False),
    ):
        sp = sub.add_parser(name, help=f"compute {name} for one (graph, ordering)")
        _add_common(sp)
        sp.add_argument("--ordering", default="identity",
                        help="identity | rand | coloring | dimension | file:PATH")
        sp.add_argument("--verify", action="store_true",
                        help="re-validate the result independently")
        if extra:
            sp.add_argument("--budget", type=int, default=200000,
                            help="psi search budget, in edges scanned")
        sp.set_defaults(func=func)

    sp = sub.add_parser("zeta", help="densest k-subset edge counts")
    _add_common(sp)
    sp.add_argument("--k", type=int)
    sp.add_argument("--ks", help="comma-separated list of k values")
    sp.add_argument("--budget", type=int, default=200000)
    sp.add_argument("--greedy", action="store_true",
                    help="greedy lower bound instead of exact search")
    sp.set_defaults(func="_cmd_zeta")

    sp = sub.add_parser("exact-f", help="exact altitude for tiny graphs")
    _add_common(sp, seed=False)
    sp.add_argument("--budget", type=int, default=200000)
    sp.add_argument("--ordering-out", help="write the witness ordering file here")
    sp.set_defaults(func="_cmd_exact_f")

    sp = sub.add_parser("adversary", help="heuristic ordering minimization")
    _add_common(sp)
    sp.add_argument("--ordering", help="anneal mode's initial ordering spec (default coloring)")
    sp.add_argument("--steps", type=int, default=2000)
    sp.add_argument("--restarts", type=int, help="--portfolio's anneal count (default 2)")
    sp.add_argument("--budget", type=int, default=200000, help="exact-psi verification budget")
    sp.add_argument("--portfolio", action="store_true",
                    help="run the full strategy portfolio")
    sp.add_argument("--ordering-out", help="write the best ordering file here")
    sp.set_defaults(func="_cmd_adversary")

    sp = sub.add_parser("bounds", help="closed-form bound evaluation")
    sp.add_argument("--gk", action="store_true", help="complete-graph bracket")
    sp.add_argument("--hypercube", action="store_true", help="hypercube bracket")
    sp.add_argument("--ineq6", action="store_true", help="key hypercube inequality at d")
    sp.add_argument("--sweep6", action="store_true", help="sweep the inequality over [lo, hi]")
    sp.add_argument("--gnp", action="store_true", help="random-graph lower bound")
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--omega", type=float, default=5.0)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--lo", type=int, default=5)
    sp.add_argument("--hi", type=int, default=10**6)
    _add_common(sp, graph=False, seed=False)
    sp.set_defaults(func="_cmd_bounds")

    sp = sub.add_parser("verify", help="full verification battery on one (graph, ordering)")
    _add_common(sp)
    sp.add_argument("--ordering", default="identity",
                    help="identity | rand | coloring | dimension | file:PATH")
    sp.add_argument("--budget", type=int, default=200000)
    sp.set_defaults(func="_cmd_verify")

    sp = sub.add_parser("experiment", help="CSV campaigns")
    sp.add_argument("campaign", choices=["hypercube", "gnp"])
    sp.add_argument("--d-max", dest="d_max", type=int)
    sp.add_argument("--n-list", dest="n_list", help="comma-separated n values")
    sp.add_argument("--p", type=float, help="edge density in [0, 1]; omitted, omega*ln(n)/sqrt(n) "
                    "capped at 1, which is K_n for every n <= 1279 at the default omega")
    sp.add_argument("--omega", type=float, default=5.0)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--psi-budget", dest="psi_budget", type=int, default=200000)
    sp.add_argument("--workers", type=int,
                    help="gnp: at most this many processes for the rows, this one included "
                         "(default: one per usable CPU); no effect on hypercube")
    _add_common(sp, graph=False)
    sp.set_defaults(func="_cmd_experiment")

    return ap


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every call without ``--config`` reuses; built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.config:
            # config defaults go on a parser of this call's own, so no later
            # call sees them
            parser = build_parser()
            _set_config_defaults(parser, args)
            args = parser.parse_args(argv)  # the same flags again, so explicit ones win
        _reject_unread_flags(parser, args)
        for dest in _COUNTS:
            value = getattr(args, dest, 0)
            if value < 0:
                raise ValueError(f"--{dest.replace('_', '-')} must be non-negative, got {value}")
        return globals()[args.func](args)  # the handler as bound now, not at build time
    except (OSError, OverflowError, SoundnessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
