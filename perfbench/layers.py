"""The layers the traced mode measures, and what each should move.

Each traced callable becomes two per-layer metrics, ``<name>.calls`` and
``<name>.self_s``.  ``DERIVED`` lists the per-layer metrics that are not a
plain call count or self time.  This module imports nothing from the
package, so run.py can list metric names without importing it.
"""

# (layer, which workloads' wall_s it should move, [(metric name, module, qualname)])
LAYERS = (
    ("catalog", "sweep (heavy), expand (light)", (
        ("catalog.verify_entry", "combident.catalog", "verify_entry"),
    )),
    ("descriptors", "expand (heavy), sweep (light); not rederive", (
        ("descriptors.eval_side", "combident.descriptors", "eval_side"),
    )),
    ("poly", "expand (heavy), sweep (light); not rederive", (
        ("poly.Polynomial.__mul__", "combident.poly", "Polynomial.__mul__"),
        ("poly.Polynomial.__pow__", "combident.poly", "Polynomial.__pow__"),
        ("poly.Polynomial.__add__", "combident.poly", "Polynomial.__add__"),
    )),
    ("terms", "sweep and rederive (heavy), expand (light)", (
        ("terms.evaluate", "combident.terms", "evaluate"),
        ("terms.evaluate_sum", "combident.terms", "evaluate_sum"),
    )),
    ("affine", "sweep, rederive", (
        ("affine.Affine.evaluate", "combident.affine", "Affine.evaluate"),
    )),
    ("exact", "sweep, rederive (moment)", (
        ("exact.binom_rational", "combident.exact", "binom_rational"),
        ("exact.alternating_power_sum", "combident.exact", "alternating_power_sum"),
    )),
    ("transforms", "rederive only", (
        ("transforms.frisch_transform", "combident.transforms", "frisch_transform"),
        ("transforms.klamkin_transform", "combident.transforms", "klamkin_transform"),
        ("transforms.moment_transform", "combident.transforms", "moment_transform"),
        ("transforms.check_derived", "combident.transforms", "check_derived"),
        ("transforms.match_against_entry", "combident.transforms", "match_against_entry"),
    )),
    ("dsl", "rederive; setup_s if the catalog moves to files", (
        ("dsl.parse_identity", "combident.dsl", "parse_identity"),
        ("dsl.print_identity", "combident.dsl", "print_identity"),
    )),
    ("integrals", "rederive only", (
        ("integrals.beta_integral_quadrature", "combident.integrals", "beta_integral_quadrature"),
        ("integrals.gauss_legendre_rule", "combident.integrals", "gauss_legendre_rule"),
    )),
)

# (metric name, unit, better, layer)
#   catalog.skipped_ratio     skipped verify_entry results / verify_entry calls
#   catalog.vacuous_ratio     verified results with both sides 0 / verified results
#   transforms.match.checked  bindings compared by match_against_entry
#   trace.overhead_s          median traced wall_s - median untraced wall_s
DERIVED = (
    ("catalog.skipped_ratio", "ratio", "lower", "catalog"),
    ("catalog.vacuous_ratio", "ratio", "lower", "catalog"),
    ("transforms.match.checked", "count", "higher", "transforms"),
    ("trace.overhead_s", "s", "lower", "trace"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in table order."""
    metrics = []
    for layer, _, targets in LAYERS:
        for name, _, _ in targets:
            metrics.append((f"{name}.calls", "count", "lower"))
            metrics.append((f"{name}.self_s", "s", "lower"))
        metrics.extend((m, u, b) for m, u, b, owner in DERIVED if owner == layer)
    metrics.extend((m, u, b) for m, u, b, owner in DERIVED if owner == "trace")
    return metrics
