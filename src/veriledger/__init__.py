"""veriledger: a deterministic proof-of-stake deepfake-detection network.

Desk-scale and fully reproducible: a single-branch PoS ledger, contract
state machines for algorithm and trusted-content registries with token
incentives, deterministic detector stand-ins behind a plugin interface,
an off-chain oracle, and a scenario engine that drives the whole
submit -> analyze -> notify -> reward loop.
"""
