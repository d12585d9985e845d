#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md): rustfmt check, release
# build, full test suite, and clippy and rustdoc with warnings denied.
# Everything runs offline — the workspace has no external dependencies by
# design.
set -eu
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "verify: OK"
