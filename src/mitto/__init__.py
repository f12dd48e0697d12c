"""Cross-sidechain message passing and token transfers, simulated at desk scale.

A mainchain accepts sidechain registrations, withdrawal certificates, and
ceased-sidechain withdrawals; sidechains exchange messages whose epoch trees
are committed through certificate proofdata; a token-transfer handler rides
on top with burn-on-send / mint-on-redeem accounting. Proof objects are
Merkle-evidence bundles standing in for succinct proofs, behind verifier
interfaces that never see more than (vk, public input, proof).
"""

# ``import mitto`` loads every module but the CLI: perfbench's tracer patches
# the functions bound in the loaded ``mitto`` modules, so a module left out
# here would go untraced. ``cli`` stays out because ``python -m mitto.cli``
# warns when its module is already imported before it runs as ``__main__``.
from . import (
    accountant,
    encoding,
    fuzz,
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
    vectors,
    verdict,
)

__all__ = [
    "accountant",
    "encoding",
    "fuzz",
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
    "vectors",
    "verdict",
]
