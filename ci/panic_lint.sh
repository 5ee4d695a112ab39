#!/usr/bin/env bash
# Panic lint for the ingest-reachable crates.
#
# Counts panic-capable sites (.unwrap( / .expect( / panic! /
# unreachable! / todo! / unimplemented!) per source file in the crates
# an untrusted input can reach, and compares against the audited
# baseline in ci/panic_allowlist.txt:
#
#   * a file whose count GROWS fails the build — new panic sites on the
#     ingest path need to become structured errors (or, if genuinely
#     unreachable-by-construction, a deliberate baseline bump in the
#     same change, with review);
#   * a file whose count SHRINKS prints a reminder to tighten the
#     baseline (non-fatal, so cleanups never block);
#   * a file not in the baseline must be panic-free.
#
# Counting stops at the first `#[cfg(test)]` attribute line (a mention
# of it inside a comment does not count): test modules sit at the bottom
# of their files in this codebase and are free to unwrap. A whole file
# is skipped when the crate root (`lib.rs`) declares its module under
# `#[cfg(test)]` — reference models and differential harnesses that no
# input outside `cargo test` can reach.
#
# Regenerate the baseline after an audit with:
#   ci/panic_lint.sh --write-baseline
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=ci/panic_allowlist.txt
CRATES=(
  crates/cc/src
  crates/wasm/src
  crates/ir/src
  crates/engine/src
  crates/serve/src
  crates/core/src
)

count_file() {
  awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /\.unwrap\(|\.expect\(|panic!|unreachable!|todo!|unimplemented!/ { n++ }
    END { print n + 0 }
  ' "$1"
}

# Names of the modules that `$1` (a crate root) declares `#[cfg(test)]`.
test_only_mods() {
  awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; next }
    gated && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+;/ {
      sub(/;.*/, ""); print $NF
    }
    !/^[[:space:]]*#\[/ { gated = 0 }
  ' "$1"
}

current="$(mktemp)"
trap 'rm -f "$current"' EXIT
for dir in "${CRATES[@]}"; do
  skip=" $(test_only_mods "$dir/lib.rs" | tr '\n' ' ')"
  while IFS= read -r file; do
    mod=${file#"$dir/"}
    mod=${mod%%/*}
    case "$skip" in *" ${mod%.rs} "*) continue ;; esac
    count=$(count_file "$file")
    if [ "$count" -gt 0 ]; then
      printf '%s %s\n' "$file" "$count" >>"$current"
    fi
  done < <(find "$dir" -name '*.rs' | LC_ALL=C sort)
done

if [ "${1:-}" = "--write-baseline" ]; then
  {
    echo "# Audited panic-site counts per ingest-reachable file."
    echo "# Maintained by ci/panic_lint.sh; regenerate with --write-baseline."
    cat "$current"
  } >"$ALLOWLIST"
  echo "panic_lint: wrote $(wc -l <"$current") entries to $ALLOWLIST"
  exit 0
fi

if [ ! -f "$ALLOWLIST" ]; then
  echo "panic_lint: missing $ALLOWLIST (run $0 --write-baseline)" >&2
  exit 1
fi

fail=0
while IFS=' ' read -r file count; do
  baseline=$(awk -v f="$file" '$1 == f { print $2 }' "$ALLOWLIST")
  baseline=${baseline:-0}
  if [ "$count" -gt "$baseline" ]; then
    echo "panic_lint: $file has $count panic sites (baseline $baseline)" >&2
    echo "  new unwrap()/panic!/unreachable! on the ingest path must" >&2
    echo "  return a structured error instead (see README: Ingest" >&2
    echo "  robustness); audited exceptions bump $ALLOWLIST." >&2
    fail=1
  elif [ "$count" -lt "$baseline" ]; then
    echo "panic_lint: $file improved to $count (baseline $baseline)" \
      "- consider tightening $ALLOWLIST"
  fi
done <"$current"

# Files that vanished from the scan but linger in the baseline are
# stale entries; flag them so the allowlist stays honest.
while IFS=' ' read -r file baseline; do
  case "$file" in '#'*|'') continue ;; esac
  if [ ! -f "$file" ]; then
    echo "panic_lint: stale baseline entry for missing file $file" >&2
    fail=1
  fi
done <"$ALLOWLIST"

if [ "$fail" -eq 0 ]; then
  echo "panic_lint: ok ($(wc -l <"$current") files with audited panic sites)"
fi
exit "$fail"
