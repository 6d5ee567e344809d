#!/usr/bin/env bash
# The symbol audit: which workspace functions no shipped program reaches.
#
# Builds the shipped programs at opt-level 0 (rum-bench's bins, the five
# examples, and rum_perf in its own target dir), lists each with
# `nm -C --defined-only`, and prints every workspace `fn` outside
# `#[cfg(test)]` whose `crate::module` path and name no symbol holds,
# then `unreached N of M`. A function is reached when one demangled symbol
# holds its file's `crate::module::` path and `::name` as a whole segment.
# Trait-impl and generic instances count (their symbols name the defining
# module); a function inlined everywhere even at opt-level 0 does not, so
# compare a count with this script's own earlier counts only.
#
# Run from the repository root: .github/scripts/unreached.sh [target-dir]
# (default target/audit; rum_perf builds into <target-dir>/rum_perf).
set -euo pipefail

target=${1:-target/audit}
# The dev profile (opt-level 0, as no manifest overrides it).
cargo build -q -p rum-bench --bins --target-dir "$target"
cargo build -q -p rum --examples --target-dir "$target"
cargo build -q --manifest-path rum_perf/Cargo.toml --target-dir "$target/rum_perf"

symbols=$(mktemp)
trap 'rm -f "$symbols" "$symbols.mod"' EXIT
programs=("$target/debug/rum-bench" "$target/rum_perf/debug/rum_perf")
for example in examples/*.rs; do
  programs+=("$target/debug/examples/$(basename "$example" .rs)")
done
for program in "${programs[@]}"; do
  nm -C --defined-only "$program" | cut -d' ' -f3-
done | sort -u >"$symbols"

# `crate::module` of a source file: the package name with `-` as `_`
# (`rum` for the facade under src/), then the path below src/.
module_of() {
  local file=$1 root=. crate rel=${1#src/}
  case $file in
    crates/*) root=${file%%/src/*} rel=${file#*/src/} ;;
  esac
  crate=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$root/Cargo.toml" | head -n1 | tr - _)
  rel=${rel%.rs}
  rel=${rel%/mod}
  case $rel in
    lib | main) echo "$crate" ;;
    *) echo "$crate::${rel//\//::}" ;;
  esac
}

total=0
unreached=0
while read -r file; do
  module=$(module_of "$file")
  grep -F "$module::" "$symbols" >"$symbols.mod" || true
  while read -r name; do
    total=$((total + 1))
    if ! grep -qE "::$name([^A-Za-z0-9_]|\$)" "$symbols.mod"; then
      unreached=$((unreached + 1))
      echo "$module::$name ($file)"
    fi
  done < <(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$file" |
    sed -nE 's/^ *(pub(\([^)]*\))? +)?(const +)?(unsafe +)?fn +([a-z_][a-z0-9_]*).*/\5/p')
done < <(find crates src -name '*.rs' -not -path '*/tests/*' | sort)
echo "unreached $unreached of $total"
