"""The package's public names: every export resolves, and the names that
were deleted or moved into the test oracle stay gone."""

import importlib

import dirlaw

GONE = {
    "arith": ("tau_real", "total_g", "local_g_sum", "tau_k"),
    "dirichlet": ("sample", "cdf_arcsine", "cdf_monte_carlo",
                  "simplex_mass"),
    "perms": ("StirlingTable", "build_stirling", "stirling_first",
              "mean_tau_alpha"),
    "polyfield": ("PolyQ", "poly_from_code", "FactoredPoly", "poly_mul",
                  "poly_divrem", "factor_poly"),
}


def test_every_export_resolves():
    assert len(dirlaw.__all__) == len(set(dirlaw.__all__))
    for name in dirlaw.__all__:
        assert getattr(dirlaw, name) is not None, name
    namespace: dict = {}
    exec("from dirlaw import *", namespace)
    assert set(dirlaw.__all__) <= namespace.keys()


def test_deleted_names_are_not_exported():
    for module, names in GONE.items():
        owner = importlib.import_module(f"dirlaw.{module}")
        for name in names:
            assert name not in dirlaw.__all__, name
            assert not hasattr(dirlaw, name), name
            assert not hasattr(owner, name), (module, name)
