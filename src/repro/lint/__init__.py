"""simlint: repo-specific static analysis for simulation correctness.

The discrete-event simulator under :mod:`repro.sim` is only useful if
it stays *deterministic* and its coroutine plumbing is used correctly.
This package is an AST-based checker (stdlib :mod:`ast` only — no new
dependencies) enforcing the simulator's contracts mechanically:

========  ==========================================================
code      rule
========  ==========================================================
SIM001    no wall-clock or process-environment reads in model code
          (``time.time`` & co., ``os.environ`` / ``os.getenv``)
SIM002    no module-level ``random.*``, unseeded ``random.Random()``
          or OS entropy (``os.urandom``, ``uuid4``, ``secrets``)
SIM003    generator model function called as a bare statement
          (a silent no-op — must go through ``env.process`` / yield),
          or a ``.serve(...)`` result dropped or ``yield from``-ed
SIM004    no ``==`` / ``!=`` on simulated timestamps; use the
          ``units.times_equal`` tolerance helper
SIM005    mutable or call-expression default arguments
SIM007    no per-event allocation on the ``sim/``/``flash/`` hot paths
SIM011    frozen dataclass field ``init=False`` without
          ``compare=False`` (out of the cache key, still in ``==``)
========  ==========================================================

Every rule sees one module at a time.  What needs a run to see — state
shared between cells, hash-order dependence, a cell the pool cannot
pickle, a spec the cache cannot key — is guarded at runtime
(:mod:`repro.lint.sanitizer`, ``exec/spec.py``, ``exec/cache.py``);
DESIGN.md §10 has the guarantee → guard table.

Findings are suppressed per line with ``# simlint: disable=SIM001``
(comma-separate several codes) or per file with
``# simlint: disable-file=SIM001``.

Run it as ``repro lint [paths...]`` or ``python -m repro.lint``.
"""
