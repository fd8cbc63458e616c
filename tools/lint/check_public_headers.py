#!/usr/bin/env python3
"""Public-header hygiene lint (promoted from PR 5's inline CI shell check).

Rules, over every header in include/plrupart/ (plus the generated headers in
the build tree when --gen-include-dir is given):

  include-path   every quote-include must name a "plrupart/..." path that
                 resolves inside the installed include set. Internal src/
                 headers (common/cli.hpp, common/csv.hpp, ...) are
                 reachable in-tree through the plrupart::internal target only;
                 an installed header that mentions one ships a broken include.
  shadow         no installed header may share its plrupart-relative path with
                 a src/ internal header -- such a pair silently resolves to
                 different files for internal and external builds.
  standalone     every installed header must compile on its own against the
                 installed include set only (-I include dirs, nothing else).
                 Skipped when --cxx is omitted or empty.

Exit 1 on any violation. See tools/lint/lint_util.py for the output format.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List

from lint_util import QUOTE_INCLUDE_RE, Violation, line_of, report, strip_comments


def check_includes(
    headers: List[Path], include_dir: Path, gen_include_dir: Path | None, src_dir: Path | None
) -> List[Violation]:
    violations: List[Violation] = []
    internal_rel = set()
    if src_dir and src_dir.is_dir():
        internal_rel = {str(p.relative_to(src_dir)) for p in src_dir.rglob("*.hpp")}

    for header in headers:
        text = strip_comments(header.read_text())
        for m in QUOTE_INCLUDE_RE.finditer(text):
            inc, line = m.group(1), line_of(text, m.start())
            if not inc.startswith("plrupart/"):
                hint = " (this is a src/-internal header)" if inc in internal_rel else ""
                violations.append(
                    Violation(
                        header,
                        line,
                        "include-path",
                        f'quote-include "{inc}" does not name an installed '
                        f"plrupart/ header{hint}",
                    )
                )
                continue
            candidates = [include_dir.parent / inc]
            if gen_include_dir is not None:
                candidates.append(gen_include_dir / inc)
            if not any(c.is_file() for c in candidates):
                violations.append(
                    Violation(
                        header,
                        line,
                        "include-path",
                        f'quote-include "{inc}" does not resolve inside the '
                        "installed include set",
                    )
                )

    for rel in sorted(internal_rel):
        if (include_dir / rel).is_file():
            violations.append(
                Violation(
                    include_dir / rel,
                    1,
                    "shadow",
                    f"installed header shadows src/-internal header src/{rel}",
                )
            )
    return violations


def check_standalone(
    headers: List[Path], include_dir: Path, gen_include_dir: Path | None, cxx: str
) -> List[Violation]:
    violations: List[Violation] = []
    include_flags = ["-I", str(include_dir.parent)]
    if gen_include_dir is not None:
        include_flags += ["-I", str(gen_include_dir)]
    for header in headers:
        cmd = [
            cxx,
            "-std=c++20",
            "-x",
            "c++-header",
            "-fsyntax-only",
            "-DPLRUPART_STATIC_DEFINE",
            *include_flags,
            str(header),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            errors = [l for l in lines if "error" in l]
            detail = (errors or lines or [f"{cxx} exited {proc.returncode}"])[0]
            violations.append(
                Violation(header, 1, "standalone", f"does not compile standalone: {detail}")
            )
    return violations


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--include-dir", type=Path, required=True,
                    help="the checked-in include/plrupart directory")
    ap.add_argument("--gen-include-dir", type=Path, default=None,
                    help="build-tree include dir holding generated plrupart/ headers")
    ap.add_argument("--src-dir", type=Path, default=None,
                    help="src/ directory holding the internal-only headers")
    ap.add_argument("--cxx", default="",
                    help="compiler for the standalone-compile rule (empty: skip)")
    args = ap.parse_args()

    include_dir = args.include_dir.resolve()
    if not include_dir.is_dir() or include_dir.name != "plrupart":
        print(f"--include-dir must point at .../include/plrupart, got {include_dir}",
              file=sys.stderr)
        return 2
    gen_dir = args.gen_include_dir.resolve() if args.gen_include_dir else None

    headers = sorted(include_dir.rglob("*.hpp"))
    if gen_dir is not None:
        headers += sorted((gen_dir / "plrupart").rglob("*.hpp"))
    if not headers:
        print("no headers found", file=sys.stderr)
        return 2

    violations = check_includes(headers, include_dir, gen_dir, args.src_dir)
    if args.cxx:
        violations += check_standalone(headers, include_dir, gen_dir, args.cxx)
    return report(violations, "check_public_headers")


if __name__ == "__main__":
    sys.exit(main())
