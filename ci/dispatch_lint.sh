#!/usr/bin/env bash
# Dispatch-head lint for the register interpreter.
#
# `Interp::run_reg` (crates/engine/src/interp.rs) is one `loop { match op }`
# whose speed depends on the loop's hot state — the pc, the running code,
# the charge sum — staying in machine registers. Nothing in the source can
# demand that; any edit of the loop re-rolls LLVM's register allocation.
# This script checks the outcome instead of trusting it: it disassembles
# `run_reg` from a release binary, prints where it sits (entry address,
# byte offset within its 64-byte line, length) and every dispatch head,
# and fails if an instruction on a head *writes* a %rsp-relative operand
# — the pc or the charge sum spilled to the stack and stored back on
# every dispatch.
#
# A dispatch head runs from the recipe add — `add (…,%reg,8),%reg`, the
# op's packed charge recipe onto the running sum — and the guard-bit
# `test` right after it, through the op-kind `jmp *%reg`; the three
# instructions in front of the add are printed and checked with it (a pc
# stored back just before the add is spilled all the same). LLVM may
# duplicate the head; every copy is checked.
#
# Usage:
#   ci/dispatch_lint.sh            # builds and checks the release test
#                                  # binary of cage-engine
#   ci/dispatch_lint.sh BINARY...  # checks the given binaries instead
#                                  # (e.g. the cage-bench executable)
#
# Needs `nm` and `objdump` (binutils) and an x86-64 target; not part of
# the tier-1 tests.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$(uname -m)" != x86_64 ]; then
  echo "dispatch_lint: x86-64 only (this is $(uname -m)); skipped"
  exit 0
fi

bins=("$@")
if [ "${#bins[@]}" -eq 0 ]; then
  while IFS= read -r exe; do
    bins+=("$exe")
  done < <(cargo test --release -p cage-engine --lib --no-run --message-format=json 2>/dev/null |
    sed -n 's/.*"executable":"\([^"]*\)".*/\1/p')
  if [ "${#bins[@]}" -eq 0 ]; then
    echo "dispatch_lint: could not build the cage-engine test binary" >&2
    exit 1
  fi
fi

fail=0
for bin in "${bins[@]}"; do
  read -r addr size < <(nm -S -C "$bin" | awk '/::Interp::run_reg$/ { print $1, $2; exit }') || true
  if [ -z "${addr:-}" ]; then
    echo "dispatch_lint: no Interp::run_reg symbol in $bin (inlined?)" >&2
    fail=1
    continue
  fi
  start=$((16#$addr))
  len=$((16#$size))
  printf 'dispatch_lint: %s\n  run_reg at %#x, byte %d of its 64-byte line, %d bytes\n' \
    "$bin" "$start" $((start % 64)) "$len"
  # One instruction per line: "addr: mnemonic operands".
  if ! objdump -d --no-show-raw-insn --start-address="$start" \
    --stop-address=$((start + len)) "$bin" |
    awk '
      /^ *[0-9a-f]+:\t/ {
        n++
        line[n] = $0
        sub(/^ *[0-9a-f]+:\t/, "", line[n])
        ins[n] = line[n]
      }
      END {
        heads = 0; bad = 0
        for (i = 1; i <= n; i++) {
          # The recipe add: a scaled-index load added into a register.
          if (ins[i] !~ /^add +\(%r[a-z0-9]+,%r[a-z0-9]+,8\),%r[a-z0-9]+$/) continue
          # ... followed within three instructions by the guard-bit test.
          t = 0
          for (j = i + 1; j <= i + 3 && j <= n; j++) {
            if (ins[j] ~ /^test +%r[a-z0-9]+,%r[a-z0-9]+$/) { t = j; break }
          }
          if (!t) continue
          # ... and on through the op-kind indirect jump.
          e = 0
          for (j = t + 1; j <= t + 24 && j <= n; j++) {
            if (ins[j] ~ /^jmp +\*%r[a-z0-9]+$/) { e = j; break }
          }
          if (!e) continue
          heads++
          printf "  head %d:\n", heads
          for (j = (i > 3 ? i - 3 : 1); j <= e; j++) {
            mark = "    "
            # AT&T syntax: the destination is the last operand.
            if (ins[j] ~ /^(mov|add|sub|inc|dec|and|or|xor|lea|push)[a-z]* .*[(]%rsp[)]$/) {
              mark = "  ! "; bad++
            }
            printf "%s%s\n", mark, ins[j]
          }
        }
        if (heads == 0) { print "  no dispatch head found"; exit 2 }
        if (bad) { printf "  %d stack write(s) on the dispatch head\n", bad; exit 1 }
      }
    '; then
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "dispatch_lint: ok"
else
  echo "dispatch_lint: FAILED — the dispatch loop spills its hot state;" \
    "see ROADMAP hazard (3)" >&2
fi
exit "$fail"
