"""Rule modules; importing this package registers every rule.

Rule id taxonomy:

* ``RPL1xx`` — determinism (set iteration, nondeterministic reads,
  float tie-break equality);
* ``RPL2xx`` — mask/kernel boundary (frozenset ops in mask modules,
  reference-oracle imports) and cache-key hygiene (hash-seed-dependent
  key material);
* ``RPL3xx`` — solver contract (engine bypass, registry coverage);
* ``RPL4xx`` — hygiene (mutable defaults, bare except);
* ``RPL5xx`` — whole-program analysis (interprocedural determinism
  taint, kernel purity, seeded-randomness discipline); these
  only run under ``--analyze``;
* ``RPL0xx`` — meta (RPL000 syntax error, RPL001 unused suppression).
"""

from repro.devtools.reprolint.rules import (  # noqa: F401  (registration side effect)
    analysis,
    cache,
    determinism,
    hygiene,
    masks,
    solvers,
)
