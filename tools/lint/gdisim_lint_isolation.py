#!/usr/bin/env python3
"""Isolation rules of the gdisim lint pass (``gdisim_lint.py``).

They prove the simulator's agent-isolation model (DESIGN.md "Concurrency
model"). The simulator library in ``src/`` starts no thread, so the model
does not guard against data races; it guards the §4.3.3 consistency rule
and the equivalence of the dense sweep and the active-set scheduler, which
both rest on results not depending on the order in which agents run:

  * during the tick phase each agent may mutate only its own state; all
    cross-agent effects travel through ``Inbox::post`` / port APIs, whose
    drains sort deliveries into a canonical order;
  * mutable static or global state outlives one simulator (tests and
    examples build several per process), so one run could see what another
    left behind: it must be const or explicitly sanctioned with
    ``// GDISIM-SHARED: <reason>``;
  * a synchronization primitive or ``thread_local`` in a thread-free
    library is process-wide state by definition, so each one must carry a
    ``// GDISIM-SHARED: <reason>`` and the inventory stays auditable.

Rules:

  gdisim-cross-agent-write      tick-phase code (reachable from an
                                ``on_tick`` / ``on_interactions`` override)
                                writes through a pointer or reference to
                                another agent's state
  gdisim-unguarded-shared       mutable static or namespace-scope global
                                that is neither const, atomic, thread_local
                                nor annotated GDISIM-SHARED
  gdisim-raw-sync               atomic/mutex/spinlock or thread_local
                                declaration without a GDISIM-SHARED
                                annotation
  gdisim-isolation-annotation-no-reason
                                a GDISIM-SHARED annotation without a reason

Annotations are structured comments on the declaration line or the line
above::

    std::atomic<long> hits_{0};   // GDISIM-SHARED: relaxed metrics counter
"""

from __future__ import annotations

import re

from gdisim_lint_model import (NON_DECL_START, Model, SourceFile, TypeDef, balanced,
                               declaration, line_of)

RULES = {
    "gdisim-cross-agent-write": "tick-phase code writes through a "
    "pointer/reference to another agent's state; cross-agent effects must "
    "go through Inbox::post or a port API so results do not depend on agent "
    "order (the §4.3.3 consistency rule, dense/active-set equivalence)",
    "gdisim-unguarded-shared": "mutable static/global state outlives one "
    "simulator, so a run can see what an earlier one in the same process "
    "left: make it const or per-simulator, or sanction it with "
    "// GDISIM-SHARED: <reason>",
    "gdisim-raw-sync": "synchronization primitive or thread_local in the "
    "thread-free simulator library is process-wide state: keep the "
    "inventory auditable with // GDISIM-SHARED: <reason>",
    "gdisim-isolation-annotation-no-reason": "GDISIM-SHARED without a "
    "reason: state why the shared access is sound "
    "(// GDISIM-SHARED: <reason>)",
}

# Agent tick-phase entry points; the per-class lexical call closure extends
# the set to helpers those entries call.
TICK_ENTRIES = {"on_tick", "on_interactions", "advance_tick", "accept",
                "next_wake_tick", "on_run_complete"}

_ASSIGN_OP = r"(?:=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)"

_SYNC_PRIM = (
    r"(?:std::\s*)?(?:atomic\s*<|atomic_flag\b|atomic_u?int\w*\b|mutex\b|"
    r"timed_mutex\b|recursive_mutex\b|recursive_timed_mutex\b|"
    r"shared_mutex\b|shared_timed_mutex\b|condition_variable(?:_any)?\b|"
    r"counting_semaphore\b|binary_semaphore\b|barrier\b|latch\b|"
    r"once_flag\b|SpinLock\b|pthread_(?:mutex|rwlock|cond|spinlock)_t\b)")
_SYNC_DECL = re.compile(
    r"^\s*(?:mutable\s+|static\s+|inline\s+|alignas\s*\([^)]*\)\s*)*"
    + _SYNC_PRIM)
_SYNC_ANYWHERE = re.compile(_SYNC_PRIM)

_ANN_TOKEN = re.compile(r"GDISIM-(SHARED)(?![\w-])")

_CTRL_NAMES = {"if", "for", "while", "switch", "catch", "return", "sizeof",
               "alignof", "alignas", "decltype", "static_assert", "assert",
               "operator", "new", "delete", "defined", "co_await",
               "co_return", "co_yield"}


# --------------------------------------------------------------------------
# Annotations
# --------------------------------------------------------------------------


def _annotations_on(raw_line: str) -> list[str | None]:
    """The reason (None when missing) of each annotation on `raw_line`. A
    token counts as an annotation when a ``:`` introduces its reason or when
    nothing but whitespace / comment-close follows it; trailing prose
    without a colon is a mention, not an annotation."""
    out = []
    for m in _ANN_TOKEN.finditer(raw_line):
        rest = raw_line[m.end():]
        cm = re.match(r"\s*:\s*([^\n]*)", rest)
        if cm:
            out.append(cm.group(1))
        elif not re.search(r"\w", rest.replace("*/", " ")):
            out.append(None)
    return out


def _annotated(raw_lines: list[str], lineno: int) -> bool:
    """Whether line `lineno` (1-based) or the line above carries a
    GDISIM-SHARED annotation. Reason presence is audited separately."""
    return any(_annotations_on(raw_lines[ln - 1])
               for ln in (lineno, lineno - 1) if 1 <= ln <= len(raw_lines))


# --------------------------------------------------------------------------
# Cross-agent writes
# --------------------------------------------------------------------------


def _methods_in(code: str, start: int, end: int) -> dict:
    """Map method name -> list of (body_start, body_end) for method
    definitions lexically inside code[start:end]."""
    out: dict[str, list] = {}
    sig = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
    tail_re = re.compile(
        r"\s*(?:const|noexcept|final|override|mutable|&&?|"
        r"->\s*[\w:<>,\s*&]+?)*\s*\{")
    i = start
    while i < end:
        m = sig.search(code, i, end)
        if not m:
            break
        name = m.group(1)
        po = m.end() - 1
        pe = balanced(code, po)
        if pe < 0 or pe > end:
            i = m.end()
            continue
        if name in _CTRL_NAMES:
            i = pe
            continue
        mt = tail_re.match(code, pe, min(pe + 160, end + 1))
        if mt and mt.end() <= end + 1:
            bo = mt.end() - 1
            be = balanced(code, bo, "{", "}")
            if 0 < be <= end + 1:
                out.setdefault(name, []).append((bo, be))
                i = be
                continue
        i = pe
    return out


def _cross_agent_findings(t: TypeDef, agent_types: set[str]) -> list[dict]:
    """gdisim-cross-agent-write inside one agent-derived type's body."""
    src = t.src
    code = src.code
    start, end = t.open + 1, t.close
    region = code[start:end]

    # Variables (fields, params, locals) declared as pointer/reference to an
    # agent-derived type anywhere in the body.
    agent_vars = set()
    for m in re.finditer(
            r"\b(?:const\s+)?([A-Za-z_]\w*)\s*[*&]+\s*(?:const\s+)?"
            r"([A-Za-z_]\w*)\s*[=;,)\[{:]", region):
        if m.group(1) in agent_types:
            agent_vars.add(m.group(2))
    agent_vars.discard("this")
    if not agent_vars:
        return []

    methods = _methods_in(code, start, end)
    closure = set(n for n in methods if n in TICK_ENTRIES)
    changed = True
    while changed:
        changed = False
        for name in methods:
            if name in closure:
                continue
            call = re.compile(r"\b" + re.escape(name) + r"\s*\(")
            if any(call.search(code, bo, be)
                   for caller in closure for bo, be in methods[caller]):
                closure.add(name)
                changed = True

    var_alt = "|".join(sorted(re.escape(v) for v in agent_vars))
    write_re = re.compile(
        r"\b(?:" + var_alt + r")"
        r"(?:\s*(?:->|\.)\s*[A-Za-z_]\w*(?:\[[^][]*\])?)+\s*" + _ASSIGN_OP)
    pre_re = re.compile(
        r"(?:\+\+|--)\s*(?:" + var_alt + r")\s*(?:->|\.)")

    rule = "gdisim-cross-agent-write"
    lines = set()
    for name in closure:
        for bo, be in methods[name]:
            body = code[bo:be]
            for m in list(write_re.finditer(body)) + list(pre_re.finditer(body)):
                lines.add(line_of(src.offsets, bo + m.start()))
    return [src.finding(line, rule, RULES[rule]) for line in sorted(lines)]


# --------------------------------------------------------------------------
# Shared state and synchronization
# --------------------------------------------------------------------------


def _declares_sync(s: str) -> bool:
    """Whether code line `s` declares a thread_local or a new
    synchronization primitive. Lock usage (lock_guard & co.) and references
    or pointers bound to an existing primitive declare nothing."""
    if re.search(r"\bthread_local\b", s):
        return True
    if NON_DECL_START.match(s) or not _SYNC_DECL.match(s):
        return False
    if re.search(r"lock_guard|unique_lock|scoped_lock|shared_lock", s):
        return False
    return not re.search(r"[>)]\s*[*&]|&\s*[A-Za-z_]\w*\s*=", s)


def _file_findings(src: SourceFile) -> list[dict]:
    findings = []

    def add(lineno: int, rule: str) -> None:
        findings.append(src.finding(lineno, rule, RULES[rule]))

    for lineno, (line, raw) in enumerate(zip(src.code_lines, src.raw_lines), start=1):
        for reason in _annotations_on(raw):
            if not re.search(r"\w", (reason or "").replace("*/", " ")):
                add(lineno, "gdisim-isolation-annotation-no-reason")

        s = line.strip()
        if (not s.startswith("#") and _declares_sync(s)
                and not _annotated(src.raw_lines, lineno)):
            add(lineno, "gdisim-raw-sync")

        is_static = bool(re.match(r"(?:inline\s+)?static\s", s))
        if not is_static and not src.ns_scope[lineno - 1]:
            continue
        if re.search(r"\b(?:const|constexpr|constinit|thread_local)\b"
                     r"|std::\s*atomic|GDISIM_", line):
            continue
        if _SYNC_ANYWHERE.search(line):
            continue  # the primitive *is* the guard; raw-sync audits it
        decl = declaration(s)
        if decl is None or len(re.findall(r"[A-Za-z_]\w*", decl)) < 2:
            continue
        if not _annotated(src.raw_lines, lineno):
            add(lineno, "gdisim-unguarded-shared")
    return findings


def check(model: Model) -> list[dict]:
    agent_types = model.closure({"Agent"})
    findings = [f for src in model.files for f in _file_findings(src)]
    for t in model.types:
        if t.name in agent_types:
            findings += _cross_agent_findings(t, agent_types)
    return findings
