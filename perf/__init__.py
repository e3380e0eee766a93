"""The repo's benchmark: the real ``myproxy-server`` CLI under four workloads.

See ``perf/README.md``.  Nothing here is imported by the product, and the
harness imports only the product's public client, PKI, transport and
storage APIs — never ``repro.loadgen`` or ``benchmarks/`` — so a later
change to those cannot move the ruler.
"""
