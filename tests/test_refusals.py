"""The refusal contract: every public numeric entry point, given an awkward
number in any one numeric argument, returns a value or raises a
:class:`TreedimError`, never another exception (nor a treedim warning,
which the test configuration turns into an error)."""

import math

import numpy as np
import pytest

import treedim as td
from treedim.errors import TreedimError
from treedim.generators import sample_uniform_shape

AWKWARD = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "0": 0,
    "-1": -1,
    "2.5": 2.5,
    "True": True,
    "np.nan": np.float64("nan"),
}

POISSON = td.OffspringPmf.poisson()
PA = td.PAParams(2.0, 1)
TREE = td.build_from_parents([None, 0, 0, 1, 1, 2])
SUMMARY = td.ExperimentSummary(
    model="uniform", rho=None, chi=None, n=10, trials=2, seed=1, statistic="beta_over_n",
    mean=0.2, stddev=0.01, stderr=0.007, ci_lo=0.186, ci_hi=0.214, constant=0.2,
    abs_diff=0.0,
)


def rng():
    return td.RngSpec(5).stream(0)


# name -> (call, valid arguments); each argument is replaced in turn.
ENTRY_POINTS = {
    "c_mary": (td.c_mary, (3,)),
    "c_general": (td.c_general, (2.0, 1)),
    "c_from_pk_integral": (td.c_from_pk_integral, (2.0, 1)),
    "lower_incomplete_gamma": (td.lower_incomplete_gamma, (2.0, 1.0)),
    "trinomial": (td.trinomial, (3, 1, 1)),
    "q_line_prob": (td.q_line_prob, (2.0, 1, 1.0)),
    "pk_given_x": (td.pk_given_x, (2.0, 1, 1.0)),
    "h_tail": (td.h_tail, (1.0, 2.0, 0.5)),
    "p_leaf": (td.p_leaf, (2.0, 1)),
    "QuadratureSpec": (td.QuadratureSpec, (1e-10, 1e-12)),
    "adaptive_simpson": (lambda a, b: td.adaptive_simpson(math.exp, a, b), (0.0, 1.0)),
    "PAParams": (td.PAParams, (2.0, 1)),
    "OffspringPmf.poisson": (td.OffspringPmf.poisson, (1.0,)),
    "OffspringPmf.geometric": (td.OffspringPmf.geometric, (0.5,)),
    "OffspringPmf.from_probs": (lambda *p: td.OffspringPmf.from_probs(p), (0.5, 0.0, 0.5)),
    "RngSpec": (td.RngSpec, (1,)),
    "RngSpec.stream": (td.RngSpec(1).stream, (0,)),
    "sample_conditioned_gw": (lambda n: td.sample_conditioned_gw(POISSON, n, rng()), (5,)),
    "sample_uniform_shape": (lambda n: sample_uniform_shape(n, rng()), (5,)),
    "sample_uniform_tree": (lambda n: td.sample_uniform_tree(n, rng()), (5,)),
    "sample_pa_tree": (lambda n: td.sample_pa_tree(PA, n, rng()), (5,)),
    "simulate_cmj": (lambda n, horizon: td.simulate_cmj(PA, n, rng(), horizon), (5, 1.0)),
    "sample_H": (lambda lam, nu: td.sample_H(lam, nu, rng()), (1.0, 2.0)),
    "ExperimentConfig": (
        lambda n, trials, seed, workers: td.ExperimentConfig(
            td.UniformModel(), n, trials, seed, workers=workers
        ),
        (10, 2, 1, 1),
    ),
    "compare_to_constant": (lambda tol: td.compare_to_constant(SUMMARY, tol), (0.01,)),
    "is_pl": (lambda v: td.is_pl(TREE, v), (1,)),
    "is_pk": (lambda v: td.is_pk(TREE, v), (1,)),
    "is_line": (lambda v: td.is_line(TREE, v), (1,)),
    "is_resolving": (lambda v: td.is_resolving(TREE, (3, 4, v)), (5,)),
    "build_from_parents": (lambda p: td.build_from_parents([None, 0, 0, p]), (1,)),
}

CASES = [
    pytest.param(name, pos, value, id=f"{name}-arg{pos}-{label}")
    for name, (_, args) in ENTRY_POINTS.items()
    for pos in range(len(args))
    for label, value in AWKWARD.items()
]


@pytest.mark.parametrize("name, pos, value", CASES)
def test_value_or_treedim_error(name, pos, value):
    call, args = ENTRY_POINTS[name]
    args = list(args)
    args[pos] = value
    try:
        call(*args)
    except TreedimError:
        pass


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_valid_arguments_return(name):
    call, args = ENTRY_POINTS[name]
    call(*args)
