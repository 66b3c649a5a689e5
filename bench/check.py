"""Reading CLI output back into label-free observations.

``observe`` turns one invocation's exit code and stdout into a small dict
in the base instance's vertex ids: verdict fields are copied, and edge
lists are mapped back through the op's inverse relabeling, sorted and
hashed.  An op passes when its observation equals the pinned one.
"""

from __future__ import annotations

import hashlib
import json

from corpus import ANALYZE, EXPORT_CS, EXPORT_DOT, VERIFY, Op


def edge_digest(edges) -> str:
    text = "".join(f"{u} {v}\n" for u, v in sorted(edges))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _mapped(pairs, inv):
    out = []
    for u, v in pairs:
        a, b = inv[int(u)], inv[int(v)]
        out.append((a, b) if a < b else (b, a))
    return out


def _analyze(out: str, op: Op) -> dict:
    report = json.loads(out)
    verdict, limit, jbd = report["verdict"], report["limit"], report["jbd"]
    obs = {"converged": verdict["converged"], "rule": verdict["rule"], "jbd_holds": None, "limit": None}
    if jbd is not None:
        obs["jbd_holds"] = jbd["holds"]
    if limit is not None:
        edges = _mapped(limit["edges"], op.inv)
        obs["limit"] = {"source": limit["source"], "edges": len(edges), "digest": edge_digest(edges)}
    return obs


def _dot(out: str, op: Op) -> dict:
    lines = out.splitlines()
    nodes, pairs = 0, []
    for line in lines[1:-1]:
        body = line.strip().rstrip(";")
        if " -- " in body:
            a, b = body.split(" -- ")
            pairs.append((a.strip('"'), b.strip('"')))
        else:
            nodes += 1
    edges = _mapped(pairs, op.inv)
    return {"header": lines[0], "nodes": nodes, "edges": len(edges), "digest": edge_digest(edges)}


def observe(op: Op, exit_code: int, out: str) -> dict:
    """What op's output says, independent of the relabeling."""
    obs: dict = {"exit": exit_code}
    try:
        if op.kind == ANALYZE:
            obs.update(_analyze(out, op))
        elif op.kind == EXPORT_DOT:
            obs.update(_dot(out, op))
        elif op.kind == EXPORT_CS:
            # class labels survive the relabeling, so the text itself is pinned
            obs["digest"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        elif op.kind == VERIFY:
            obs["line"] = out.strip()
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
    except (ValueError, KeyError, TypeError, IndexError) as e:
        obs["unreadable"] = f"{type(e).__name__}: {e}"
    return obs


class Verifier:
    """Checks outputs against expectations.  A repetition whose exit code and
    stdout bytes equal those of an output already found correct passes on
    its digest alone, so repeating a batch costs a hash, not a parse."""

    def __init__(self):
        self._good: dict[str, tuple[int, bytes]] = {}

    def problem(self, op: Op, exit_code: int, out: bytes) -> str | None:
        seen = (exit_code, hashlib.sha256(out).digest())
        if self._good.get(op.key) == seen:
            return None
        problem = mismatch(op, exit_code, out.decode("utf-8", "replace"))
        if problem is None:
            self._good[op.key] = seen
        return problem


def mismatch(op: Op, exit_code: int, out: str) -> str | None:
    """None when op's output matches its expectation, else the first difference."""
    if op.expect is None:
        return "no pinned expectation"
    got = observe(op, exit_code, out)
    for key in sorted(set(got) | set(op.expect)):
        if got.get(key) != op.expect.get(key):
            return f"{key}: expected {op.expect.get(key)!r}, got {got.get(key)!r}"
    return None
