"""Shared hypothesis strategies for generating valid P4runpro programs,
and the example budget of the churn suites."""

from hypothesis import settings
from hypothesis import strategies as st


def churn_examples(tier1: int) -> int:
    """Example count of an engine churn suite (migration, shm, codegen
    engine): ``tier1`` under the default profile, the profile's own count
    under ``HYPOTHESIS_PROFILE=nightly`` (registered in conftest.py)."""
    if settings.get_current_profile_name() == "nightly":
        return max(tier1, settings.default.max_examples)
    return tier1

SIMPLE_TEMPLATES = [
    "LOADI(har, {i});",
    "LOADI(sar, {i});",
    "LOADI(mar, {i});",
    "ADD(har, sar);",
    "XOR(sar, mar);",
    "MIN(har, sar);",
    "MAX(mar, har);",
    "MOVE(har, mar);",
    "ADDI(sar, {i});",
    "SUBI(har, {i});",
    "ANDI(mar, {i});",
    "NOT(mar);",
    "SUB(har, sar);",
    "EQUAL(sar, mar);",
    "SGT(har, mar);",
    "EXTRACT(hdr.ipv4.src, har);",
    "EXTRACT(hdr.ipv4.dst, sar);",
    "MODIFY(hdr.ipv4.ttl, sar);",
    "MODIFY(hdr.ipv4.id, mar);",
    "HASH_5_TUPLE;",
    "HASH;",
    "DROP;",
    "RETURN;",
    "REPORT;",
]

MEMORY_TEMPLATES = [
    "HASH_5_TUPLE_MEM(m{j});",
    "HASH_MEM(m{j});",
    "MEMADD(m{j});",
    "MEMREAD(m{j});",
    "MEMWRITE(m{j});",
    "MEMOR(m{j});",
    "MEMMAX(m{j});",
]


@st.composite
def programs(draw, max_mems: int = 3, max_stmts: int = 4, max_cases: int = 3):
    """Random valid programs: a prefix, a BRANCH with 1-N cases, a suffix."""
    num_mems = draw(st.integers(1, max_mems))
    decls = "".join(f"@ m{j} 64\n" for j in range(num_mems))

    def stmts(budget):
        count = draw(st.integers(0, budget))
        out = []
        for _ in range(count):
            if draw(st.booleans()):
                template = draw(st.sampled_from(SIMPLE_TEMPLATES))
            else:
                template = draw(st.sampled_from(MEMORY_TEMPLATES))
            out.append(
                template.format(
                    i=draw(st.integers(0, 1000)),
                    j=draw(st.integers(0, num_mems - 1)),
                )
            )
        return out

    prefix = stmts(max_stmts)
    cases = []
    for index in range(draw(st.integers(1, max_cases))):
        body = stmts(max_stmts) or ["DROP;"]
        cases.append(f"case(<har, {index}, 0xff>) {{ {' '.join(body)} }}")
    suffix = stmts(2)
    body = " ".join(prefix) + " BRANCH: " + " ".join(cases) + " " + " ".join(suffix)
    return f"{decls}program p(<hdr.ipv4.ttl, 0, 0x0>) {{ {body} }}"
