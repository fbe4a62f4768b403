#!/usr/bin/env bash
# Builds pipebench (once per checkout) and runs it with the given flags:
#
#   bash pipebench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# The build uses the real rand/rustfft/crossbeam/parking_lot when cargo can
# resolve them without a network, and otherwise patches in the stand-ins
# under offline/ (README.md, "Backends"). Nothing outside the checkout is
# written: the build goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
mkdir -p "$target/pipebench"
marker="$target/pipebench/backend"

build() { # build <backend>
    local patches=()
    if [ "$1" = stub ]; then
        for crate in rand rustfft crossbeam parking_lot; do
            patches+=(--config "patch.crates-io.$crate.path=\"$here/offline/$crate\"")
        done
    fi
    cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" \
        --bin pipebench "${patches[@]}"
}

backend="$(cat "$marker" 2>/dev/null || true)"
if [ -n "$backend" ]; then
    build "$backend"
elif build real 2>"$target/pipebench/real-build.log"; then
    backend=real
else
    # A lock file from a half-resolved real attempt would pin the stub build.
    rm -f "$here/Cargo.lock"
    build stub
    backend=stub
fi
echo "$backend" >"$marker"

locked() { # locked <crate>: its version in Cargo.lock
    awk -v want="name = \"$1\"" '$0 == want { getline; gsub(/version = |"/, ""); print; exit }' \
        "$here/Cargo.lock" 2>/dev/null || true
}
export PIPEBENCH_BACKEND="$backend"
export PIPEBENCH_RAND="$(locked rand)"
export PIPEBENCH_RUSTFFT="$(locked rustfft)"
export PIPEBENCH_CPU="$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)"
export PIPEBENCH_RUSTC="$(rustc -V)"

exec "$target/release/pipebench" "$@"
