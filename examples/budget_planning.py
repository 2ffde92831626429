#!/usr/bin/env python
"""Budget planning: how construction cost scales with the query load.

A product team rarely trains classifiers for its whole query log at
once; budgets arrive in quotas.  This example sweeps growing prefixes of
a P-like load (Section 6.1's subset methodology), compares the paper's
algorithm against the naive strategies, and reports the approximation
guarantee Algorithm 3 carries on each sub-instance next to what it
actually achieved (measured against the solve's own lower bound).

Run:  python examples/budget_planning.py
"""

from repro import make_solver, optimality_report
from repro.datasets import private_like
from repro.experiments import subset_order


def main() -> None:
    load = private_like(n=2000, seed=11)
    order = subset_order(load.n, seed=11)
    print(f"query load: {load.n} queries, k = {load.max_query_length}")
    print()
    header = f"{'n':>6} {'MC3[G]':>10} {'QO':>10} {'PO':>10} {'bound':>10} {'gap':>7} {'guar.':>7}"
    print(header)
    print("-" * len(header))

    for size in (250, 500, 1000, 2000):
        sub = load.subset(size, order=order)
        mc3 = make_solver("mc3-general").solve(sub)
        qo = make_solver("query-oriented").solve(sub)
        po = make_solver("property-oriented").solve(sub)

        # The optimality certificate: forced preprocessing cost plus
        # the bound each component's solve reported bound OPT from below.
        report = optimality_report(sub, mc3)
        print(
            f"{size:>6} {mc3.cost:>10.0f} {qo.cost:>10.0f} {po.cost:>10.0f} "
            f"{report.lower_bound:>10.0f} {report.gap:>6.3f}x "
            f"{report.guarantee:>6.2f}x"
        )

    print()
    print("'gap' is measured cost over the lower bound — an upper bound")
    print("on how far MC3[G] is from optimal; 'guar.' is the proven worst-")
    print("case factor min{ln I + ln(k-1) + 1, 2^(k-1)} (Theorem 5.3).")


if __name__ == "__main__":
    main()
