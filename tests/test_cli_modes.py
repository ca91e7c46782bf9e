"""Every subcommand, mode and flag of the command line, on K_3/Q_3-sized inputs.

For each (command, mode) of ``cli._MODES``, and each subcommand without
modes, a small valid command line is the base.  A flag the mode does not
read, set away from its default, must exit 3 with nothing on stdout.  A flag
the mode reads must change the output for some value in ``VALUES``, or be
listed in ``INERT`` with the reason it cannot.  Seeded random flag
combinations, bad values among them, must exit 0, 2, 3 or 4 without a
traceback and with at most one ``error:`` line.  No ``experiment gnp`` row
here expects ``POOL_MIN_EDGES`` edges, so no process starts.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from altitude import cli, experiments
from altitude.graphs import (
    Graph,
    make_complete,
    make_cycle,
    make_hypercube,
    sample_gnp,
    serialize_graph,
)
from altitude.orderings import EdgeOrdering, serialize_ordering

# The base command line of each (command, mode); None is the mode of a
# subcommand without modes.  {name} is an input file, {out} the output folder.
_GRAPH_MODES = {"identity": "identity", "file": "file:{g8_ord}", "rand": "rand",
                "coloring": "coloring"}
BASE = {
    **{("gen", family): ["gen", "--family", family, *flags] for family, flags in {
        "complete": ["--n", "4"], "hypercube": ["--d", "2"], "path": ["--n", "4"],
        "cycle": ["--n", "4"], "star": ["--leaves", "3"], "matching": ["--k", "2"],
        "gnp": ["--n", "6", "--p", "0.5"]}.items()},
    **{(command, mode): [command, "--graph", "{g8}", "--ordering", spec]
       for command in ("psi", "trail", "pedestrian", "verify")
       for mode, spec in _GRAPH_MODES.items()},
    **{(command, "dimension"): [command, "--graph", "{q3}", "--ordering", "dimension"]
       for command in ("psi", "trail", "pedestrian", "verify")},
    ("zeta", "greedy"): ["zeta", "--graph", "{hub}", "--k", "4", "--greedy"],
    ("zeta", "exact"): ["zeta", "--graph", "{q3_relabelled}", "--k", "3"],
    ("exact-f", None): ["exact-f", "--graph", "{c7}"],
    ("adversary", "anneal"): ["adversary", "--graph", "{g8c}", "--steps", "200"],
    ("adversary", "portfolio"): ["adversary", "--graph", "{g8b}", "--steps", "200",
                                 "--portfolio"],
    ("bounds", "gk"): ["bounds", "--gk", "--n", "7"],
    ("bounds", "hypercube"): ["bounds", "--hypercube", "--d", "5"],
    ("bounds", "ineq6"): ["bounds", "--ineq6", "--d", "9"],
    ("bounds", "sweep6"): ["bounds", "--sweep6", "--lo", "5", "--hi", "12"],
    ("bounds", "gnp"): ["bounds", "--gnp", "--n", "10000", "--p", "0.05"],
    ("experiment", "hypercube"): ["experiment", "hypercube", "--d-max", "2"],
    ("experiment", "gnp"): ["experiment", "gnp", "--n-list", "12", "--p", "0.3", "--omega", "0.5",
                            "--trials", "1"],
}

# Values tried for each flag, by destination.  Each differs from the flag's
# default, and at least one from the value in each base that sets it.
VALUES = {
    "graph": ["{k3}", "{q3}"], "config": ["{config}"], "out": ["{out}/o.txt"],
    "seed": ["3", "11"], "ordering_out": ["{out}/ord.txt"], "verify": [],
    "family": ["complete", "gnp"], "ordering": ["rand", "identity", "file:{g8_ord}", "bogus"],
    "n": ["5", "3"], "d": ["3", "6"], "leaves": ["4"], "k": ["2", "3"], "ks": ["2,3", ","],
    "p": ["0.9", "0.01"], "budget": ["0"], "greedy": [], "steps": ["0", "7"],
    "restarts": ["0", "1"], "portfolio": [],
    "gk": [], "hypercube": [], "ineq6": [], "sweep6": [], "gnp": [],
    "omega": ["2"], "eps": ["0.5"], "lo": ["6"], "hi": ["20"],
    "campaign": [], "d_max": ["3"], "n_list": ["6,7"], "trials": ["2"], "psi_budget": ["0"],
    "workers": ["1", "2"],
}
BAD = ["-1", "0", "x", "nan"]

# The flags that pick each command's mode: the bases cover their values.
SELECTORS = {
    "gen": {"family"}, "zeta": {"greedy", "ks"}, "adversary": {"portfolio"},
    "bounds": set(cli._MODES["bounds"][1]), "experiment": {"campaign"},
    **{command: {"ordering"} for command in ("psi", "trail", "pedestrian", "verify")},
}

# (command, mode, flag) read by the mode that no value here can change; a
# mode of None stands for every mode of the command.
INERT = {
    ("psi", None, "verify"): "only rechecks the witness",
    ("trail", None, "verify"): "only rechecks the witness",
    ("psi", "dimension", "budget"): "a cube's dimension ordering needs no search node",
    ("verify", "dimension", "budget"): "a cube's dimension ordering needs no search node",
    ("experiment", None, "workers"): "the CSV is the same at any worker count by design",
    ("experiment", "hypercube", "seed"):
        "the rows read only the bounds sandwich, whose seed is fixed",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("inputs")
    hub = [(0, leaf) for leaf in range(1, 21)]
    k4 = [(a, b) for a in range(21, 25) for b in range(a + 1, 25)]
    graphs = {
        "k3": make_complete(3), "q3": make_hypercube(3), "c7": make_cycle(7),
        "g8": sample_gnp(8, 0.5, seed=1), "g8b": sample_gnp(8, 0.4, seed=3),
        # psi checks of its anneal need search nodes, so --budget 0 caps them
        "g8c": sample_gnp(8, 0.4, seed=4),
        # greedy zeta(4) finds the K_4 only from a random start inside it
        "hub": Graph.from_edges(25, hub + k4),
        # labels hypercube_dimension does not recognise, so zeta searches
        "q3_relabelled": Graph.from_edges(8, [([0, 1, 3, 2, 4, 5, 7, 6][a],
                                               [0, 1, 3, 2, 4, 5, 7, 6][b])
                                              for a, b in make_hypercube(3).edges]),
    }
    paths = {}
    for name, g in graphs.items():
        paths[name] = str(root / f"{name}.txt")
        Path(paths[name]).write_text(serialize_graph(g))
    paths["g8_ord"] = str(root / "g8.ord")
    m = graphs["g8"].m
    Path(paths["g8_ord"]).write_text(serialize_ordering(EdgeOrdering(tuple(range(m, 0, -1)))))
    paths["out"] = str(root / "out")
    Path(paths["out"]).mkdir()
    paths["config"] = str(root / "out.conf")
    Path(paths["config"]).write_text(f"out={paths['out']}/conf-out.txt\n")
    return paths


@pytest.fixture()
def isolated(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool started")

    monkeypatch.setattr(experiments, "_pooled_rows", refuse)
    monkeypatch.chdir(tmp_path)  # a bad value of --out or --ordering-out is a relative path


def _stable(text: str) -> str:
    if not text.startswith("# schema=altitude/experiment-"):
        return text
    return "\n".join(ln.rsplit(",", 1)[0] for ln in text.splitlines())


def _run(capsys, files, argv):
    """Exit code, stdout, stderr and written files of one in-process run."""
    out = Path(files["out"])
    for f in out.iterdir():
        f.unlink()
    rc = cli.main([a.format(**files) for a in argv])
    cap = capsys.readouterr()
    written = {f.name: _stable(f.read_text()) for f in sorted(out.iterdir())}
    assert rc in (0, 2, 3, 4), argv
    assert "Traceback" not in cap.err, argv
    assert sum("error:" in ln for ln in cap.err.splitlines()) <= 1, (argv, cap.err)
    return rc, _stable(cap.out), cap.err, written


def _flag(action, value: str | None = None) -> list[str]:
    return [action.option_strings[0]] if action.nargs == 0 else [action.option_strings[0], value]


_PARSER = cli.build_parser()


def _actions(command: str) -> list:
    return [a for a in cli._subparser(_PARSER, command)._actions if a.dest != "help"]


def _unread(command: str, mode) -> set:
    """The mode-dependent flags of the command that the mode does not read."""
    if mode is None:
        return set()
    modes = cli._MODES[command][1]
    return {flag for flags in modes.values() for flag in flags} - set(modes[mode])


def test_the_cases_cover_every_subcommand_mode_and_flag():
    (commands,) = (a for a in _PARSER._actions if a.dest == "command")
    want = {(c, m) for c in commands.choices for m in cli._MODES.get(c, (None, {None: ()}))[1]}
    assert set(BASE) == want
    # VALUES names exactly the parsers' flags, so an added or removed flag shows here
    assert {a.dest for command in commands.choices for a in _actions(command)} == set(VALUES)


@pytest.mark.parametrize("command, mode", sorted(BASE, key=str), ids=str)
def test_every_flag_is_read_or_rejected(capsys, files, isolated, command, mode):
    base = BASE[command, mode]
    want = _run(capsys, files, base)
    assert want[0] == 0, (base, want[2])
    unread = _unread(command, mode)
    for action in _actions(command):
        if action.dest in unread:
            value = VALUES[action.dest][0]
            rc, out, err, written = _run(capsys, files, [*base, *_flag(action, value)])
            assert (rc, out, written) == (3, "", {}), (base, action.dest)
            assert err.startswith("error:") and action.option_strings[0] in err
            continue
        if action.dest in SELECTORS.get(command, ()):
            continue
        values = VALUES[action.dest] or [None]
        changed = [v for v in values if _run(capsys, files, [*base, *_flag(action, v)]) != want]
        inert = INERT.get((command, mode, action.dest)) or INERT.get((command, None, action.dest))
        assert bool(changed) != bool(inert), (base, action.dest, inert)


def test_random_flag_combinations(capsys, files, isolated):
    rng = random.Random(20)
    cases = sorted(BASE, key=str)
    for _ in range(150):
        command, mode = rng.choice(cases)
        actions = [a for a in _actions(command) if a.option_strings]
        argv = list(BASE[command, mode])
        for action in rng.sample(actions, rng.randint(1, 3)):
            argv += _flag(action, rng.choice(VALUES[action.dest] + BAD))
        _run(capsys, files, argv)
