#!/bin/sh
# Kill-at-every-crash-point chaos driver.
#
#   crash_chaos.sh <cichar-binary> hunt|lot
#
# Phase 1 traces a clean run with CICHAR_CRASH_TRACE to learn every
# crash-point site the workload visits. Phase 2 then, for each distinct
# site, re-runs the workload with CICHAR_CRASH_AT=<site> (its first hit)
# and, when the site is hit more than once, CICHAR_CRASH_AT=<site>:<n>
# (its last hit; the ledger sites' first hit is the open commit, their
# last the final seal). The process must die with exit 86; it is then
# resumed, and the driver requires:
#
#   * the primary artifact (worst-case db / lot report) byte-identical
#     to an uninterrupted reference run,
#   * `cichar ledger verify` passing on the survivor ledger,
#   * the compacted ledger byte-identical to the reference's.
#
# Artifact basenames are deliberately identical across reference and
# kill runs (separate directories): ledger snapshot-refs store basenames,
# so the byte-identity comparison requires matching names.
set -u

CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
MODE=$2
WORK=$PWD/chaos_$MODE
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK" || exit 1

fail() {
    echo "chaos($MODE): FAIL: $*" >&2
    exit 1
}

HUNT_ARGS="hunt --seed 7 --generations 4 --populations 2 --db db.txt --ledger L"
LOT_ARGS="lot --sites 3 --tests 24 --generations 3 --report report.txt --ledger L"

# --------------------------------------------------------------- reference
mkdir -p REF
cd REF || exit 1
case $MODE in
    hunt) $CLI $HUNT_ARGS > /dev/null || fail "reference hunt" ;;
    lot) $CLI $LOT_ARGS > /dev/null || fail "reference lot" ;;
    *) fail "unknown mode '$MODE'" ;;
esac
$CLI ledger compact L --out LC > /dev/null || fail "reference compact"
cd ..

# ------------------------------------------------------------------- trace
mkdir -p TRACE
cd TRACE || exit 1
case $MODE in
    hunt) CICHAR_CRASH_TRACE=trace.txt $CLI $HUNT_ARGS --checkpoint h.ckpt \
        > /dev/null || fail "trace run" ;;
    lot) CICHAR_CRASH_TRACE=trace.txt $CLI $LOT_ARGS --checkpoint l.ckpt \
        > /dev/null || fail "trace run" ;;
esac
awk '{ if ($2 + 0 > last[$1] + 0) last[$1] = $2 + 0 }
     END { for (s in last) { print s; if (last[s] > 1) print s ":" last[s] } }' \
    trace.txt | sort > sites.txt
[ -s sites.txt ] || fail "trace produced no crash-point sites"
cd ..

echo "chaos($MODE): $(wc -l < TRACE/sites.txt) kill point(s)"

# --------------------------------------------------------------- kill loop
run_hunt_case() {
    site=$1
    CICHAR_CRASH_AT=$site $CLI $HUNT_ARGS --checkpoint h.ckpt \
        > /dev/null 2>&1
    status=$?
    [ $status -eq 86 ] || fail "$site: expected exit 86, got $status"
    resume=""
    [ -f h.ckpt ] && resume="--resume h.ckpt"
    $CLI $HUNT_ARGS --checkpoint h.ckpt $resume > /dev/null ||
        fail "$site: resume run"
    cmp -s ../REF/db.txt db.txt || fail "$site: worst-case db differs"
}

run_lot_case() {
    site=$1
    CICHAR_CRASH_AT=$site $CLI $LOT_ARGS --checkpoint l.ckpt \
        > /dev/null 2>&1
    status=$?
    [ $status -eq 86 ] || fail "$site: expected exit 86, got $status"
    resume=""
    [ -f l.ckpt ] && resume="--resume l.ckpt"
    $CLI $LOT_ARGS --checkpoint l.ckpt $resume > /dev/null ||
        fail "$site: resume run"
    cmp -s ../REF/report.txt report.txt || fail "$site: lot report differs"
}

while IFS= read -r site; do
    dir=K_$(echo "$site" | tr '.:' '__')
    mkdir -p "$dir"
    cd "$dir" || exit 1
    case $MODE in
        hunt) run_hunt_case "$site" ;;
        lot) run_lot_case "$site" ;;
    esac
    # The survivor ledger must verify and compact to the reference bytes.
    $CLI ledger verify L > /dev/null || fail "$site: ledger verify"
    $CLI ledger compact L --out LC > /dev/null || fail "$site: compact"
    $CLI ledger verify LC > /dev/null || fail "$site: compacted verify"
    diff -r ../REF/LC LC > /dev/null || fail "$site: compacted ledger differs"
    cd ..
    echo "chaos($MODE): $site OK"
done < TRACE/sites.txt

echo "chaos($MODE): PASS ($(wc -l < TRACE/sites.txt) kill points)"
