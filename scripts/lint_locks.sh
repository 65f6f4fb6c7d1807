#!/usr/bin/env bash
# Lock-site lint for the storage crates.
#
# Every lock in the storage crates must go through the tracked wrappers
# (obsv::TrackedMutex / TrackedRwLock / TrackedCondvar) so the lock site
# is attributable in the contention profiler — a bare parking_lot or
# std::sync lock is invisible to `fs_inspect --contention` and the bench
# contention matrix. This check rejects new bare lock uses outside a
# small allowlist of per-object leaf locks where a static site id would
# conflate thousands of independent objects (per-inode state) or which
# are test-only control planes (fault injection).
set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(nvmm blockdev fskit pmfs extfs hinfs)
ALLOW=(
    "crates/nvmm/src/fault.rs"  # fault-injection control plane (test-only)
    "crates/pmfs/src/inode.rs"  # per-inode state/opens: per-object, not a site
    "crates/pmfs/src/mmap.rs"   # per-mapping dirty-line list
    "crates/extfs/src/inode.rs" # per-inode state/opens
)

allowed() {
    local f="$1"
    for a in "${ALLOW[@]}"; do
        [[ "$f" == "$a" ]] && return 0
    done
    return 1
}

PATTERN='use parking_lot|parking_lot::(Mutex|RwLock|Condvar)|use std::sync::(Mutex|RwLock|Condvar)|std::sync::(Mutex|RwLock|Condvar)::new'

fail=0
for crate in "${CRATES[@]}"; do
    dir="crates/$crate/src"
    [[ -d "$dir" ]] || continue
    while IFS=: read -r file line text; do
        [[ -z "$file" ]] && continue
        if ! allowed "$file"; then
            echo "lint_locks: $file:$line: bare lock use: ${text#"${text%%[![:space:]]*}"}"
            fail=1
        fi
    done < <(grep -rn --include='*.rs' -E "$PATTERN" "$dir" || true)
done

# ---- shard-array rule --------------------------------------------------
# A Vec/array of tracked locks fans one logical lock out into per-shard
# objects. Each such array must be registered here together with the
# shard-indexed Site family it constructs (Site::<family>(i)), so every
# shard reports under its own site id in the contention profiler. An
# unregistered array — or one built from a single static Site variant —
# would pass the bare-lock check above while folding all shards into one
# contention row, which is exactly the attribution loss the tracked
# wrappers exist to prevent.
SHARD_ARRAYS=(
    "crates/hinfs/src/fs.rs=hinfs_shard"        # DRAM pool / Block Index / LRW shards
    "crates/pmfs/src/alloc.rs=pmfs_alloc_shard" # free-list allocator shards
    "crates/pmfs/src/fs.rs=pmfs_ns_shard"       # namespace lock shards
    "crates/pmfs/src/inode.rs=pmfs_inode_shard" # inode-map shards
)

ARRAY_PATTERN='(Vec<|\[)Tracked(Mutex|RwLock)'
for crate in "${CRATES[@]}"; do
    dir="crates/$crate/src"
    [[ -d "$dir" ]] || continue
    while IFS=: read -r file line text; do
        [[ -z "$file" ]] && continue
        family=""
        for s in "${SHARD_ARRAYS[@]}"; do
            [[ "$file" == "${s%%=*}" ]] && family="${s##*=}"
        done
        if [[ -z "$family" ]]; then
            echo "lint_locks: $file:$line: unregistered shard array of tracked locks: ${text#"${text%%[![:space:]]*}"}"
            echo "lint_locks:   register it in SHARD_ARRAYS (in $0) with its Site::<family>(i) constructor"
            fail=1
        elif ! grep -qE "Site::${family}\(" "$file"; then
            echo "lint_locks: $file: shard array must construct each lock with Site::${family}(i) (one site per shard)"
            fail=1
        fi
    done < <(grep -rn --include='*.rs' -E "$ARRAY_PATTERN" "$dir" || true)
done

if [[ "$fail" -ne 0 ]]; then
    echo "lint_locks: storage-crate locks must use obsv::TrackedMutex/TrackedRwLock/TrackedCondvar" >&2
    echo "lint_locks: (or add a per-object leaf lock to the allowlist in $0)" >&2
    exit 1
fi
echo "lint_locks: OK (no bare lock uses outside the allowlist)"
