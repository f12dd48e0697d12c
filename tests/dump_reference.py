"""Reference atomicity check: JSON-dump every chain before and after a
transaction and compare the text.

This is the check the scenario runner made before chain state lived in
write-counting containers. It costs O(world) per step, so the runner no
longer uses it; tests run it beside the journal to show both report the
same violations.
"""
import json

from mitto.harness import Runner


class DumpCheckRunner(Runner):
    """Runner whose atomicity marks are the full JSON dump of every chain."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.world.write_marks = self._chain_dumps

    def _chain_dumps(self) -> str:
        return json.dumps(
            {label: chain.dump_state() for label, chain in self.world.chains.items()}, sort_keys=True
        )
