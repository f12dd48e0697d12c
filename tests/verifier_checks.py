"""The verifiers' check ids, as the tests read them.

``declared_check_ids`` reads every check id ``mitto.proofs`` names from its
source: each check is a ``yield "<id>", <passed>`` with the id written out.
``body_checks`` says which checks may refuse a proof body with one bit
flipped: by the field of the decoded bundle the flip lands in, looked up in
a table such as ``CSW_BODY`` (its ``""`` entry when the body no longer
decodes). The tables are hand-derived from the order of each verifier's
checks: a flip is refused by the first check that reads the field.
"""
import ast
from dataclasses import fields, is_dataclass
from pathlib import Path

from mitto import proofs
from mitto.encoding import DecodeError


def declared_check_ids() -> list[str]:
    """Every check id yielded in ``mitto.proofs``, in source order, once each."""
    yields = [node for node in ast.walk(ast.parse(Path(proofs.__file__).read_text())) if isinstance(node, ast.Yield)]
    ids = []
    for node in sorted(yields, key=lambda node: node.lineno):
        check_id = node.value.elts[0] if isinstance(node.value, ast.Tuple) else None
        assert isinstance(check_id, ast.Constant) and isinstance(check_id.value, str), (
            f"line {node.lineno}: a check yields (id, passed) with its id written out"
        )
        ids.append(check_id.value)
    return list(dict.fromkeys(ids))


def changed_fields(honest, mutant, path: str = "") -> list[str]:
    """Dotted paths of the leaves where two values differ: dataclasses are
    compared field by field, tuples of one length item by item."""
    if honest == mutant:
        return []
    if is_dataclass(honest) and type(honest) is type(mutant):
        pairs = [(f.name, getattr(honest, f.name), getattr(mutant, f.name)) for f in fields(honest)]
    elif isinstance(honest, tuple) and isinstance(mutant, tuple) and len(honest) == len(mutant):
        pairs = [(str(i), a, b) for i, (a, b) in enumerate(zip(honest, mutant))]
    else:
        return [path]
    return [leaf for name, a, b in pairs for leaf in changed_fields(a, b, f"{path}.{name}" if path else name)]


def body_checks(wire_type, table: dict, honest: bytes, flipped: bytes) -> set[str]:
    """The checks ``table`` lets refuse ``flipped``, ``honest`` with one bit
    flipped: those of the longest table key that is the changed field or a
    dotted prefix of it."""
    try:
        mutant = wire_type.decode(flipped)
    except (DecodeError, ValueError):
        return table[""]
    (path,) = changed_fields(wire_type.decode(honest), mutant)
    return table[max((key for key in table if key and f"{path}.".startswith(f"{key}.")), key=len)]


#: A certificate proof body: the roots first, then the signature.
WCERT_BODY = {
    "": {"wcert.decode"},
    "bt_list": {"wcert.bt-list-root"},
    "proofdata": {"wcert.proofdata-root"},
    "signature": {"wcert.signature"},
}

#: A payload-claim withdrawal body that carries a message, which its one
#: proofdata slot names. A kind flipped to a sent record needs two slots; the
#: anchor's certificate carries the state root at proofdata[1], and its
#: digest is the leaf the stc path folds into the header's stc_root.
CSW_BODY = {
    "": {"csw.decode"},
    "sc_id": {"csw.nullifier"},
    "kind": {"csw.proofdata-length"},
    "entity_bytes": {"csw.nullifier"},
    "message": {"csw.message-digest"},
    "proofdata": {"csw.message-digest"},
    "state_path": {"csw.state-path"},
    "state_root": {"csw.state-path"},
    "anchor.cert": {"anchor.stc-path"},
    "anchor.cert.ledger_id": {"anchor.ledger"},
    "anchor.cert.proofdata.1": {"csw.state-root"},
    "anchor.stc_path": {"anchor.stc-path"},
    "anchor.header": {"anchor.block-hash"},
    "anchor.header.stc_root": {"anchor.stc-path"},
    "signature": {"csw.signature"},
}
