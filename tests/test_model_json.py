"""Malformed model JSON: every one-field mutation of a valid model spec
either builds or is refused with SpecValidationError, never a traceback."""

import copy
import io
import json
import re
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condiid import cli
from condiid.cli import build_model
from condiid.errors import SpecValidationError


def atom(g, weight=1.0):
    return {"g": g, "weight": weight}


G_KINDS = [
    {"kind": "frechet", "theta": 0.5},
    {"kind": "weibull", "theta": 0.5},
    {"kind": "mo_atom", "m": 0.5},
    {"kind": "mo_atom", "m": {"family": "point_mass", "m": 1.2}},
    {"kind": "step", "points": [0.4, 1.6], "values": [0.5, 1.0]},
    {"kind": "mo_atom", "m": {"family": "finite_discrete", "atoms": [0.5, 2.0], "weights": [0.5, 0.5]}},
]

STDF_KINDS = [
    {"kind": "independence"},
    {"kind": "logistic", "theta": 0.5},
    {"kind": "logistic", "theta": 1.0},
    {"kind": "negative_logistic", "theta": 1.5},
    *({"kind": "lf", "g": g} for g in G_KINDS),
    {"kind": "triplet", "b": 0.2, "c": 1.0,
     "atoms": [atom(G_KINDS[0], 0.25), atom(G_KINDS[1], 0.25), atom(G_KINDS[2], 0.5)]},
    {"kind": "triplet", "c": 1.0, "atoms": [atom(G_KINDS[3], 0.5), atom(G_KINDS[4], 0.5)]},
]

EXSHOCK = {"family": "exshock", "shocks": [
    {"kind": "exponential", "rate": 0.5}, {"kind": "step", "points": [1.0], "values": [0.5]}]}
BINARY_M = {"family": "binary", "d": 2,
            "m": {"family": "finite_discrete", "atoms": [0.2, 0.8], "weights": [0.5, 0.5]}}

VALID_SPECS = [
    *({"family": "minstable", "d": 3, "rate": 1.5, "stdf": stdf} for stdf in STDF_KINDS),
    {"family": "marshall_olkin", "d": 3, "subordinator": {
        "drift": 0.4, "kill": 0.1, "jumps": [{"size": 0.65, "rate": 1.0}]}},
    {"family": "exch_normal", "d": 3, "mu": 0.3, "sigma": 1.2, "rho": 0.4},
    {"family": "sato", "d": 3, "alpha": 1.05},
    {"family": "dirichlet_prior", "d": 3, "c": 2.0,
     "base": {"family": "normal", "mu": 0.0, "sigma": 1.0}},
    EXSHOCK,
    BINARY_M,
    {"family": "l1", "d": 3, "m": {"family": "gamma", "shape": 1.5}},
    {"family": "linf", "d": 3, "m": {"family": "pareto", "alpha": 2.5}},
    {"family": "spherical", "d": 3, "m": {"family": "beta", "p": 2.0, "q": 3.0}},
    {"family": "archimedean", "d": 3, "m": {"family": "log_series", "theta": 0.5}},
    {"family": "geometric", "b": [1.0, 0.5, 0.3]},
    {"family": "binary", "b": [1.0, 0.5, 0.34]},
]

BAD_VALUES = st.one_of(
    st.sampled_from(["x", "", None, True, False, [], [1.0], {}, {"kind": "x"}]),
    st.integers(-100, 100),
    st.floats(-100.0, 100.0),
)


def json_objects(tree, path=()):
    """(path, object) for every JSON object in ``tree``, ``tree`` included."""
    if isinstance(tree, dict):
        yield path, tree
        for key, value in tree.items():
            yield from json_objects(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from json_objects(value, path + (i,))


@st.composite
def mutations(draw):
    """A valid spec with one field replaced, deleted or added; and whether
    the mutation adds an unknown field, which every object refuses, the
    top-level spec included."""
    spec = copy.deepcopy(draw(st.sampled_from(VALID_SPECS)))
    path, obj = draw(st.sampled_from(list(json_objects(spec))))
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add":
        obj["unknown_field"] = draw(BAD_VALUES)
        return spec, True
    key = draw(st.sampled_from(sorted(obj)))
    if action == "delete":
        del obj[key]
    else:
        obj[key] = draw(BAD_VALUES)
    return spec, False


@pytest.mark.parametrize("spec", VALID_SPECS)
def test_valid_specs_build(spec):
    build_model(copy.deepcopy(spec))


def test_valid_specs_cover_every_family():
    assert {spec["family"] for spec in VALID_SPECS} == set(cli._FAMILIES)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutation=mutations())
def test_mutated_spec_builds_or_is_refused(mutation):
    spec, must_refuse = mutation
    try:
        build_model(spec)
    except SpecValidationError:
        return
    assert not must_refuse, f"unknown field accepted: {spec}"


SUBORDINATOR_D40 = {"family": "marshall_olkin", "d": 40, "subordinator": {
    "drift": 0.4, "kill": 0.1, "jumps": [{"size": 0.65, "rate": 1.0}]}}
BINARY_BETA_D40 = {"family": "binary", "d": 40, "m": {"family": "beta", "p": 2, "q": 3}}
BY_CONSTRUCTION = [spec for spec in VALID_SPECS if "m" in spec or "subordinator" in spec]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("spec", BY_CONSTRUCTION + [SUBORDINATOR_D40, BINARY_BETA_D40],
                         ids=lambda spec: f"{spec['family']}_d{spec['d']}")
def test_check_agrees_with_sample(spec):
    # a model given by m or by a subordinator is sampled from that
    # construction, so check calls it extendible at every d, and says why
    model = json.dumps(spec)
    assert run(["sample", "--model", model, "--n", "5", "--seed", "1"])[0] == 0
    code, out = run(["check", "--model", model])
    assert code == 0
    verdict, report = out.splitlines()
    field = "subordinator" if "subordinator" in spec else "m"
    assert verdict == "extendible"
    assert json.loads(report) == {"extendible": True, "by_construction": field}


def with_field(spec, path, value):
    """A copy of ``spec`` whose field at ``path`` (keys and list indices) is ``value``."""
    spec = copy.deepcopy(spec)
    obj = spec
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return spec


MO_ATOM_FD = {"family": "minstable", "d": 3, "stdf": {"kind": "lf", "g": G_KINDS[-1]}}

REFUSALS = [  # (spec, the JSON path its refusal names)
    *((with_field(BINARY_M, ("m",), m), "m") for m in (0, [], "", False, None)),
    *((with_field(MO_ATOM_FD, ("stdf", "g", "m", key, 0), v), f"stdf.g.m.{key}[0]")
      for key in ("atoms", "weights") for v in (None, "x", True)),
    *((with_field(EXSHOCK, ("shocks", 1, key, 0), v), f"shocks[1].{key}[0]")
      for key in ("points", "values") for v in (None, "x", True)),
]


@pytest.mark.parametrize("spec, path", REFUSALS)
def test_refusal_names_the_field(spec, path):
    with pytest.raises(SpecValidationError, match=rf"^{re.escape(path)} must be"):
        build_model(spec)
