#!/usr/bin/env python3
"""Snapshot rules of the gdisim lint pass (``gdisim_lint.py``).

Checkpoint/restore must reproduce the uninterrupted run bit for bit. These
rules turn the ways that silently breaks into findings at the exact line.

A type is *snapshotable* when it

  * declares an ``archive*`` method (``archive_state``,
    ``archive_discipline``, ...), inline or out-of-line,
  * inherits from a snapshotable type (every ``Agent`` subclass),
  * is taken by reference or pointer by an ``archive_*`` free function
    (``archive_stage_job(..., StageJob&)``), or
  * is lexically nested in a snapshotable type.

A type's fields are covered by its archive bodies: its own ``archive*``
methods plus the ``archive_*`` free functions taking it, which covers the
delegation patterns in the tree (``member_.archive_state(ar)``,
``Base::archive_state(ar, reg)``). A nested record with no archive path of
its own (it neither declares nor inherits one) is streamed field by field
by its enclosing type, so that type's archive bodies cover its fields.

Rules:

  gdisim-snapshot-ptr                 raw-pointer field in a snapshotable type
  gdisim-archive-missing-field        field neither referenced in any covering
                                      archive body nor annotated transient
  gdisim-archive-asymmetric           the save path and the load path of one
                                      archive body touch members / sections /
                                      delegates in different sequences
  gdisim-archive-transient-no-reason  an ARCHIVE-TRANSIENT annotation without
                                      a reason

Annotation: mark an intentionally-unarchived field with a structured comment
on its declaration line (or the line above)::

    double cache_ = 0.0;  // ARCHIVE-TRANSIENT: recomputed on first tick
"""

from __future__ import annotations

import re

from gdisim_lint_model import Model, balanced, field_name

RULES = {
    "gdisim-snapshot-ptr": "raw-pointer field in a snapshotable type: the "
    "archive path must re-express it as a stable id (AgentId, instance "
    "serial, pool/queue index); once it does, acknowledge with "
    "NOLINT(gdisim-snapshot-ptr)",
    "gdisim-archive-missing-field": "field of a snapshotable type is neither "
    "archived nor declared transient: thread it through archive_state or "
    "annotate it with // ARCHIVE-TRANSIENT: <reason>",
    "gdisim-archive-asymmetric": "archive body is asymmetric: the save and "
    "load paths touch members/sections/delegates in different sequences, "
    "which desynchronizes the byte stream on restore",
    "gdisim-archive-transient-no-reason": "ARCHIVE-TRANSIENT without a "
    "reason: state why the field is intentionally not archived "
    "(// ARCHIVE-TRANSIENT: <reason>)",
}

# A raw-pointer member declaration: `Type* name;`, `const T* n = nullptr;`,
# `mutable T* cache_;`, or a template whose arguments hold a raw pointer,
# `std::vector<Agent*> agents_;` (an owning `std::unique_ptr<T>` holds none).
# Parens are excluded everywhere so function/method declarations returning
# pointers (and function-pointer members) never match.
_PTR_FIELD = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?[A-Za-z_][\w:]*"
    r"(?:<[^;()]*\*[^;()]*>\s*|(?:<[^;()]*>)?\s*\*\s*(?:const\s+)?)"
    r"[A-Za-z_]\w*\s*(?:=\s*[^;()]*|\{[^;()]*\})?\s*;"
)

# Stream-advancing primitives. expect_equal is deliberately absent: it is a
# read-side validation that consumes no bytes, so it may legitimately appear
# on only one path.
ARCHIVE_PRIMS = ("u8", "u32", "u64", "i64", "f64", "boolean", "str",
                 "size_value", "section")

_TRANSIENT = re.compile(r"ARCHIVE-TRANSIENT(?!\w)(?:\s*:\s*(\S[^\n]*?))?\s*(?:\*/)?\s*$")


def _transients(raw_lines: list[str]) -> dict[int, str | None]:
    """line -> reason (None when missing) for each ARCHIVE-TRANSIENT
    annotation. It applies to the field on its own line, or to the next
    line when the annotation line declares no field."""
    out = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        if "ARCHIVE-TRANSIENT" not in raw:
            continue
        ci = raw.find("//")
        m = _TRANSIENT.search((raw[ci:] if ci >= 0 else raw).rstrip())
        reason = m.group(1).strip() if m and m.group(1) else ""
        out[lineno] = reason or None
    return out


# --------------------------------------------------------------------------
# Symmetry: write-path vs read-path event traces
# --------------------------------------------------------------------------

_COND = re.compile(r"\bif\s*\(\s*(!?)\s*ar\s*\.\s*(writing|reading)\s*\(\s*\)\s*\)")


def _block_extent(text: str, start: int) -> tuple[str, int]:
    """Content of the statement starting at text[start:] (either a braced
    block or a single statement up to ';'); returns (content, end_index)."""
    i = start
    while i < len(text) and text[i] in " \t\n":
        i += 1
    if i < len(text) and text[i] == "{":
        end = balanced(text, i, "{", "}")
        if end < 0:
            return text[i + 1:], len(text)
        return text[i + 1:end - 1], end
    semi = text.find(";", i)
    if semi < 0:
        return text[i:], len(text)
    return text[i:semi + 1], semi + 1


def _select_path(body: str, mode: str) -> str:
    """Linearize `body` for one direction: keep common code, keep the branch
    that executes when the archive is in `mode` ('w'|'r'), drop the other."""
    out = []
    i = 0
    while True:
        m = _COND.search(body, i)
        if not m:
            out.append(body[i:])
            break
        out.append(body[i:m.start()])
        negated = m.group(1) == "!"
        which = m.group(2)
        then_content, after = _block_extent(body, m.end())
        else_content = ""
        em = re.match(r"\s*else\b", body[after:])
        if em:
            else_content, after = _block_extent(body, after + em.end())
        cond_true = ((mode == "w") == (which == "writing")) != negated
        out.append(_select_path(then_content if cond_true else else_content, mode))
        i = after
    return "".join(out)


_EVENT = re.compile(
    r"ar\s*\.\s*(" + "|".join(ARCHIVE_PRIMS) + r")\s*\(|"
    r"(?:[A-Za-z_]\w*\s*(?:\[[^\[\]]*\]\s*)?(?:\.|->)|[A-Za-z_]\w*\s*::\s*)?"
    r"\b(archive\w*)\s*\(")


def _trace(code: str, raw: str, fields: set[str]) -> list[tuple]:
    """Ordered archive events in `code` (one linearized path): primitives
    (with the member they touch, when it is a known field), section markers
    (labels recovered from `raw`), and archive calls.

    Archive calls are normalized to ("call", method) without the receiver:
    the save path often iterates a container (structured binding locals)
    while the load path indexes it (`stats_[key]`), so receiver spellings
    differ while the byte stream is identical."""
    events: list[tuple] = []
    for m in _EVENT.finditer(code):
        if m.group(1):  # ar.<prim>(...)
            prim = m.group(1)
            paren = m.end() - 1
            close = balanced(code, paren)
            if close < 0:
                continue
            if prim == "section":
                lit = re.search(r'"([^"]*)"', raw[paren:close])
                events.append(("section", lit.group(1) if lit else "?"))
                continue
            args = code[paren + 1:close - 1]
            ref = next((t for t in re.findall(r"[A-Za-z_]\w*", args)
                        if t in fields), None)
            events.append(("prim", prim, ref) if ref is not None
                          else ("prim", prim))
        else:  # any archive call: member, Base::, or free
            events.append(("call", m.group(2)))
    return events


def _asymmetry(body: dict, fields: set[str]) -> str | None:
    """First save/load divergence of one archive body, or None."""
    wcode = _select_path(body["code"], "w")
    rcode = _select_path(body["code"], "r")
    if wcode == rcode:
        return None  # no direction-dependent branches
    wt = _trace(wcode, _select_path(body["raw"], "w"), fields)
    rt = _trace(rcode, _select_path(body["raw"], "r"), fields)
    if wt == rt:
        return None
    i = next((i for i, (a, b) in enumerate(zip(wt, rt)) if a != b),
             min(len(wt), len(rt)))
    wd = wt[i] if i < len(wt) else "(end)"
    rd = rt[i] if i < len(rt) else "(end)"
    return "event %d: save=%s load=%s" % (i, wd, rd)


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


def check(model: Model) -> list[dict]:
    own_path = model.closure(model.archive_decls)
    snapshotable = model.closure(own_path, nested=True)
    findings: list[dict] = []

    def add(src, line: int, rule: str, detail: str | None = None) -> None:
        message = RULES[rule] + (" [" + detail + "]" if detail else "")
        findings.append(src.finding(line, rule, message))

    for t in model.types:
        if t.name in snapshotable:
            for _name, line in t.fields:
                if _PTR_FIELD.match(t.src.code_lines[line - 1]):
                    add(t.src, line, "gdisim-snapshot-ptr")

    def cover(name: str, seen: frozenset = frozenset()) -> list[str]:
        if name in own_path:
            return [b["code"] for b in model.archive_bodies.get(name, [])]
        return [code for t in model.by_name.get(name, [])
                if t.parent is not None and t.parent.name not in seen
                for code in cover(t.parent.name, seen | {name})]

    transients = {src: _transients(src.raw_lines) for src in model.files}
    for name in sorted(snapshotable):
        defs = model.by_name.get(name, [])
        if not any(t.fields for t in defs):
            continue
        text = "\n".join(cover(name))
        for t in defs:
            ann = transients[t.src]
            for field, line in t.fields:
                at = line if line in ann else line - 1
                # A previous-line annotation belongs to that line's own
                # field declaration when it has one.
                if at in ann and (at == line or field_name(t.src.code_lines[at - 1]) is None):
                    if ann[at] is None:
                        add(t.src, at, "gdisim-archive-transient-no-reason",
                            name + "::" + field)
                    continue
                if not re.search(r"\b" + re.escape(field) + r"\b", text):
                    add(t.src, line, "gdisim-archive-missing-field",
                        name + "::" + field)

        fields = {f for t in defs for f, _line in t.fields}
        for body in model.archive_bodies.get(name, []):
            where = _asymmetry(body, fields)
            if where is not None:
                add(body["src"], body["line"], "gdisim-archive-asymmetric",
                    "%s::%s %s" % (name, body["method"], where))
    return findings
