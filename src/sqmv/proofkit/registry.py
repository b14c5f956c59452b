"""Registry of derived rules, each certified by a machine-checked script.

Registration order matters: a certificate may cite only lemmas registered
before it.  The standard registry is loaded from the packaged certificate
files, whose numeric filename prefixes fix the order.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from ..syntax import SqmvError
from .checker import check_proof
from .script import ProofScript, parse_script
from .systems import SQL, Rule


class CertificationFailed(SqmvError):
    pass


class Registry:
    def __init__(self):
        self._rules: dict[str, Rule] = {}

    def get(self, rule_id: str) -> Rule | None:
        return self._rules.get(rule_id)

    def ids(self) -> tuple[str, ...]:
        return tuple(self._rules)

    def register(self, rule_id: str, certificate: ProofScript) -> Rule:
        """Check ``certificate`` against the rules registered so far, then add it.

        The certificate's hypotheses become the rule's premise schemas and its
        final line becomes the conclusion schema.
        """
        if rule_id in self._rules:
            raise CertificationFailed(f"lemma id {rule_id!r} is already registered")
        if certificate.system != SQL:
            raise CertificationFailed("derived rules must be certified in sqL*")
        report = check_proof(certificate, self)
        if not report.accepted:
            raise CertificationFailed(
                f"certificate for {rule_id!r} rejected: {report.summary()}"
            )
        rule = Rule(rule_id, certificate.hypotheses, certificate.conclusion)
        self._rules[rule_id] = rule
        return rule


def packaged_certificates() -> list[tuple[str, str]]:
    """(rule id, script text) pairs in registration order."""
    root = resources.files("sqmv") / "fixtures" / "derived"
    entries = sorted(
        (f.name, f.read_text(encoding="utf-8"))
        for f in root.iterdir()
        if f.name.endswith(".sqlp")
    )
    out = []
    for name, text in entries:
        rule_id = name.split("_", 1)[1].removesuffix(".sqlp")
        out.append((rule_id, text))
    return out


@lru_cache(maxsize=1)
def standard_registry() -> Registry:
    reg = Registry()
    for rule_id, text in packaged_certificates():
        reg.register(rule_id, parse_script(text))
    return reg
