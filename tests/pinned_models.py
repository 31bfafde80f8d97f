"""The model texts the tests pin: the paper's regime, its exponential
control, and the two class-reduction fixtures."""

DEFAULT_MODEL = ("mix(0.5: pareto(alpha=1.5, kappa=1), "
                 "0.5: neg(pareto(alpha=0.5, kappa=1)))")
LIGHT_CONTROL = ("mix(0.5: exponential(rate=1), "
                 "0.5: neg(exponential(rate=0.5)))")
K_DIVERGENT = ("mix(0.5: pareto(alpha=0.4, kappa=1), "
               "0.5: neg(pareto(alpha=0.5, kappa=1)))")
CASE_B = ("mix(0.5: pareto(alpha=0.8, kappa=1), "
          "0.5: neg(pareto(alpha=0.3, kappa=1)))")
