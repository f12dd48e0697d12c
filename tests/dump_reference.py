"""Reference atomicity check: JSON-dump every chain before and after a
transaction and compare the text.

This is the check the scenario runner made before chain state lived in
write-counting containers. It costs O(world) per step, so the runner no
longer uses it; ``oracles.OracleRunner`` takes these dumps around every
submission beside the journal marks, and holds the journal to seeing every
write the dumps see.
"""
import json

from mitto.harness import World


def chain_dumps(world: World) -> str:
    """The full JSON dump of every chain of ``world``, as one string."""
    return json.dumps({label: chain.dump_state() for label, chain in world.chains.items()}, sort_keys=True)
