#!/bin/sh
# One rule for ROADMAP item 2's numbers, per crate and workspace-wide:
#   lines = lines of each src/**/*.rs up to its first `#[cfg(test)]`
#   pub   = `pub (fn|struct|enum|const|type|trait|mod|use)` items among them
#   bins  = binary targets: src/main.rs plus each src/bin/*.rs
#   opts  = `pub` fields of every `pub struct` whose name ends in `Config`,
#           `Params` or `Constants`, among the same non-test lines
# Usage: tools/surface.sh [file-or-dir ...]   (default: every crate's src/,
#        then a workspace row and a vendor row for vendor/*/src)
cd "$(dirname "$0")/.." || exit 1
count() { # prints "<lines> <pub items> <opts>" for the .rs files under "$@"
    find "$@" -name '*.rs' | sort | while read -r f; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$f"
    done | awk '
        /^[[:space:]]*pub (fn|struct|enum|const|type|trait|mod|use) / { p++ }
        /^pub struct [A-Za-z]*(Config|Params|Constants)[ <]/ { cfg = 1 }
        cfg && /^[[:space:]]+pub [a-z_0-9]+:/ { o++ }
        /^}/ { cfg = 0 }
        END { print NR + 0, p + 0, o + 0 }'
}
if [ $# -gt 0 ]; then
    set -- $(count "$@")
    printf '%-22s %7d lines %5d pub items %4d opts\n' selection "$1" "$2" "$3"
    exit 0
fi
bins() { ls "$@" 2>/dev/null | wc -l; }
for c in crates/*/; do
    set -- $(count "$c/src") $(bins "$c"src/main.rs "$c"src/bin/*.rs)
    printf '%-22s %7d lines %5d pub items %3d bins %4d opts\n' "$(basename "$c")" "$1" "$2" "$4" "$3"
done
set -- $(count crates/*/src) $(bins crates/*/src/main.rs crates/*/src/bin/*.rs)
printf '%-22s %7d lines %5d pub items %3d bins %4d opts\n' workspace "$1" "$2" "$4" "$3"
# The vendored stand-ins, by the same rule: not in the workspace row, so
# that row stays comparable across changes that delete a stand-in.
set -- $(count vendor/*/src) $(bins vendor/*/src/main.rs vendor/*/src/bin/*.rs)
printf '%-22s %7d lines %5d pub items %3d bins %4d opts\n' vendor "$1" "$2" "$4" "$3"
