"""Cross-sidechain message passing and token transfers, simulated at desk scale.

A mainchain accepts sidechain registrations, withdrawal certificates, and
ceased-sidechain withdrawals; sidechains exchange messages whose epoch trees
are committed through certificate proofdata; a token-transfer handler rides
on top with burn-on-send / mint-on-redeem accounting. Proof objects are
Merkle-evidence bundles standing in for succinct proofs. The certificate
and withdrawal verifiers never see more than (vk, public input, proof). The
redeem verifier reads no chain either: it checks the evidence against the
block root and the posting the receiving chain looked up for it.
"""

# ``import mitto`` loads the modules a run executes, and only those:
# perfbench's tracer patches the functions bound in the loaded ``mitto``
# modules, so a run-path module left out here would go untraced. ``fuzz`` and
# ``vectors`` generate and check inputs, and no run needs them; callers import
# them by name (``from mitto import fuzz``). ``cli`` stays out because
# ``python -m mitto.cli`` warns when its module is already imported before it
# runs as ``__main__``.
from . import (
    accountant,
    encoding,
    harness,
    hashing,
    journal,
    keys,
    mainchain,
    messages,
    proofs,
    scenario,
    sidechain,
    tokens,
    verdict,
)

__all__ = [
    "accountant",
    "encoding",
    "harness",
    "hashing",
    "journal",
    "keys",
    "mainchain",
    "messages",
    "proofs",
    "scenario",
    "sidechain",
    "tokens",
    "verdict",
]
