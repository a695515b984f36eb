#!/bin/sh
# The CLI identity table: every determinism check of `cichar hunt` and
# `cichar lot` as one declared row.
#
#   identity.sh --list             print every row, one a line
#   identity.sh CICHAR NAME...     run each named class reference or row;
#                                  exit 1 at the first failure
#
# A row is CLASS__AXIS. A class, VERB_ENGINE_FAULTS, has its own
# reference run:
#   VERB     hunt | lot (8 sites)
#   ENGINE   insitu | ring (--inflight 1)
#   FAULTS   off | moderate (--fault-profile moderate, policy on)
# Naming a class runs its reference into ./cli_identity/CLASS: one plain
# run, one with --metrics-out (cmp'd to the plain one) whose counters the
# rows read, and the plain run's ledger compacted. A row reuses that
# reference when the same cichar binary and this script made it, and
# runs it first otherwise (ctest runs each class reference once, as a
# fixture of its rows).
# Every run of a class writes every artifact the class has: --report,
# --checkpoint and --ledger, plus --db and --model for a hunt. An axis is
# a way of running the class that must leave each of them byte-identical
# to the class reference: the files and each raw ledger segment are
# cmp'd. Each row also asserts, from the run's own outputs, that its axis
# reached the code it sizes, so a dead axis fails instead of passing:
#   jobs4        --jobs 4
#                live: cichar_pool_tasks_total > 0, and above the
#                class's own
#   depth4       --inflight 4 (ring classes)
#   depth16      --inflight 16 (ring classes)
#                live: cichar_hunt_slab_cold_clones_total >= depth, and
#                above the class's own (depth 1)
#   jobs4depth16 --jobs 4 --inflight 16 (ring classes)
#                live: both of the above
#   status       --status DIR
#                live: `cichar status --json` names the verb and every
#                site finished (with faults off, every site done: none
#                quarantined); the text view and a `cichar top` frame
#                render
#   telemetry    --metrics-out FILE --trace-out FILE
#                live: cichar_ate_measurements_total > 0, and
#                `cichar trace-report` lists hunt.drive or lot.site
#   resume       stop early (hunt --abort-after-generation 2, lot
#                --max-sites 1), then --resume the checkpoint
#                live: the first leg printed its partial line, and every
#                counter of the resumed leg's --metrics-out is at least
#                the first leg's and the class's --metrics-out run's (the
#                resume reloads the snapshot, and re-learns)
#   crash        kill (exit 86) at every crash point a traced run visits,
#                at its first and its last hit, then resume; the survivor
#                ledger verifies and compacts to the reference's compacted
#                bytes
#                live: every kill exits 86
#   statuscrash  kill inside the second status-feed write, then resume
#                live: the kill exits 86, the feed still renders, and
#                after the resume it names every site finished
#
# Each run writes into its own directory under ./cli_identity/ROW (or
# ./cli_identity/CLASS) and names its artifacts there by absolute path,
# under the same basenames: a ledger's snapshot-ref stores only the
# basename, so the ledgers of runs in different directories must still be
# identical.
set -u

classes() {
    for verb in hunt lot; do
        for engine in insitu ring; do
            for faults in off moderate; do
                echo "${verb}_${engine}_$faults"
            done
        done
    done
}

rows() {
    for class in $(classes); do
        for axis in jobs4 depth4 depth16 jobs4depth16 status telemetry \
            resume crash statuscrash; do
            case $class:$axis in *_insitu_*:*depth*) continue ;; esac
            echo "${class}__$axis"
        done
    done
}

if [ "${1:-}" = --list ]; then
    rows
    exit 0
fi
if [ $# -lt 2 ]; then
    echo "usage: identity.sh --list | identity.sh CICHAR NAME..." >&2
    exit 2
fi
CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
shift
# What a class reference was made by: the cichar binary and this script.
STAMP="$(cksum < "$CLI") $(cksum < "$0")"

fail() {
    echo "identity($ROW): FAIL: $*" >&2
    exit 1
}

# run DIR [FLAG...]: one run of the class in $WORK/DIR, stdout in out.txt.
# It names its artifacts by absolute path, as a run started elsewhere
# would.
run() {
    mkdir -p "$WORK/$1"
    (
        dir=$WORK/$1
        shift
        cd "$dir" || exit 1
        set -- --report "$dir/report.txt" --checkpoint "$dir/ckpt" \
            --ledger "$dir/L" "$@"
        [ "$VERB" = hunt ] && set -- --db "$dir/db.txt" \
            --model "$dir/model.txt" "$@"
        "$CLI" $ARGS "$@" > out.txt 2> err.txt
    )
}

# same DIR: every artifact in DIR is byte-identical to the reference's.
same() {
    for f in $ARTIFACTS; do
        cmp -s "$REF/ref/$f" "$WORK/$1/$f" ||
            fail "$1: $f differs from the reference"
    done
    [ "$(ls "$REF/ref/L")" = "$(ls "$WORK/$1/L")" ] ||
        fail "$1: ledger segments differ from the reference's"
    for segment in $(ls "$REF/ref/L"); do
        cmp -s "$REF/ref/L/$segment" "$WORK/$1/L/$segment" ||
            fail "$1: ledger segment $segment differs from the reference"
    done
}

# counter FILE NAME: a counter's value in a --metrics-out file (0 if absent).
counter() {
    awk -v name="$2" '$1 == name { value = $2 } END { print value + 0 }' "$1"
}

# at_least FILE WHAT: every counter in the --metrics-out FILE is in the
# resumed leg's snapshot, at least as large.
at_least() {
    awk 'FNR == NR {
             if ($1 == "#") {
                 if ($2 == "TYPE" && $4 == "counter") is_counter[$3] = 1
             } else if ($1 in is_counter) floor[$1] = $2
             next
         }
         { resumed[$1] = $2 }
         END {
             for (name in floor) {
                 ++counters
                 if (!(name in resumed) || resumed[name] + 0 < floor[name] + 0) {
                     printf " %s", name
                     below = 1
                 }
             }
             exit below || counters == 0
         }' "$1" "$WORK/axis/m.prom" > "$WORK/axis/below.txt" ||
        fail "resumed counters below $2:$(cat "$WORK/axis/below.txt")"
}

# live NAME FLOOR: the axis run counted NAME at least FLOOR times, and
# more than the class's own --metrics-out run.
live() {
    own=$(counter "$REF/base/m.prom" "$1")
    got=$(counter "$WORK/axis/m.prom" "$1")
    [ "$got" -ge "$2" ] && [ "$got" -gt "$own" ] ||
        fail "$1 $got (class's own $own, floor $2)"
}

# finished DIR: the status feed in DIR names the verb and every site
# finished, and its text and top views render.
finished() {
    json=$("$CLI" status "$1" --json) || fail "cichar status --json $1"
    done_field=
    [ "$FAULTS" = off ] && done_field="\"sites_done\":$SITES,"
    for field in "\"kind\":\"$VERB\"" "\"sites_total\":$SITES," \
        "\"sites_running\":0," "\"finished_sites\":$SITES," $done_field; do
        case $json in *"$field"*) ;; *) fail "status feed lacks $field" ;; esac
    done
    "$CLI" status "$1" | grep -q "$SITES/$SITES finished" ||
        fail "status text does not show $SITES/$SITES finished"
    "$CLI" top "$1" --iterations 1 --interval 0 | grep -q 'cichar top' ||
        fail "cichar top renders no frame"
}

# killed DIR SITE [FLAG...]: a run killed at crash point SITE (exit 86).
killed() {
    (export CICHAR_CRASH_AT="$2" && dir=$1 && shift 2 && run "$dir" "$@")
    status=$?
    [ $status -eq 86 ] || fail "$2: expected exit 86, got $status"
}

# resumed DIR [FLAG...]: the killed run again, from its checkpoint when it
# left one.
resumed() {
    resume=""
    [ -f "$WORK/$1/ckpt" ] && resume="--resume ckpt"
    run "$@" $resume || fail "$1: resume"
}

# compacted DIR: DIR's ledger verifies, and so does its compaction.
compacted() {
    "$CLI" ledger verify "$WORK/$1/L" > /dev/null || fail "$1: ledger verify"
    "$CLI" ledger compact "$WORK/$1/L" --out "$WORK/$1/LC" > /dev/null ||
        fail "$1: ledger compact"
    "$CLI" ledger verify "$WORK/$1/LC" > /dev/null ||
        fail "$1: compacted ledger verify"
}

# class CLASS: the class's flags and artifacts, and its reference in $REF.
class() {
    VERB=${1%%_*}
    engine=${1#*_}
    engine=${engine%%_*}
    FAULTS=${1##*_}
    case $VERB in
        hunt)
            ARGS="hunt --seed 7 --generations 4 --populations 2"
            ARTIFACTS="report.txt db.txt model.txt ckpt"
            SITES=1
            STOP="--abort-after-generation 2"
            PARTIAL="hunt checkpointed after generation"
            SPAN=hunt.drive
            ;;
        lot)
            ARGS="lot --sites 8 --tests 24 --generations 3"
            ARTIFACTS="report.txt ckpt"
            SITES=8
            STOP="--max-sites 1"
            PARTIAL="partial lot:"
            SPAN=lot.site
            ;;
    esac
    [ "$engine" = ring ] && ARGS="$ARGS --inflight 1"
    [ "$FAULTS" = moderate ] && ARGS="$ARGS --fault-profile moderate"
    REF=$PWD/cli_identity/$1
}

# reference CLASS: the class's plain run (ref) and --metrics-out run
# (base), which must agree, and the plain run's compacted ledger.
reference() {
    class "$1"
    WORK=$REF
    rm -rf "$WORK"
    mkdir -p "$WORK"
    run ref || fail "reference run"
    for f in $ARTIFACTS; do
        [ -s "$WORK/ref/$f" ] || fail "reference wrote no $f"
    done
    run base --metrics-out m.prom || fail "metrics run"
    same base
    compacted ref
    echo "$STAMP" > "$WORK/stamp"
    echo "identity($1): reference"
}

run_row() {
    rows | grep -qx "$ROW" || fail "no such row (identity.sh --list)"
    class=${ROW%%__*}
    axis=${ROW#*__}
    class "$class"
    [ "$(cat "$REF/stamp" 2> /dev/null)" = "$STAMP" ] ||
        (ROW=$class && reference "$class") || exit 1
    WORK=$PWD/cli_identity/$ROW
    rm -rf "$WORK"
    mkdir -p "$WORK"

    case $axis in
        jobs4 | depth4 | depth16 | jobs4depth16)
            case $axis in
                jobs4) flags="--jobs 4" ;;
                jobs4depth16) flags="--jobs 4 --inflight 16" ;;
                *) flags="--inflight ${axis#depth}" ;;
            esac
            run axis $flags --metrics-out m.prom || fail "axis run"
            same axis
            case $axis in
                jobs4*) live cichar_pool_tasks_total 1 ;;
            esac
            case $axis in
                *depth*) live cichar_hunt_slab_cold_clones_total "${axis#*depth}" ;;
            esac
            ;;
        status)
            run axis --status S || fail "axis run"
            same axis
            finished "$WORK/axis/S"
            ;;
        telemetry)
            run axis --metrics-out m.prom --trace-out t.jsonl || fail "axis run"
            same axis
            [ "$(counter "$WORK/axis/m.prom" cichar_ate_measurements_total)" -gt 0 ] ||
                fail "no ATE measurements in --metrics-out"
            "$CLI" trace-report "$WORK/axis/t.jsonl" | grep -q "$SPAN" ||
                fail "trace-report lists no $SPAN span"
            ;;
        resume)
            run axis $STOP --metrics-out m.prom || fail "first leg"
            grep -q "$PARTIAL" "$WORK/axis/out.txt" ||
                fail "first leg printed no '$PARTIAL' line"
            cp "$WORK/axis/m.prom" "$WORK/axis/m_first.prom"
            run axis --resume ckpt --metrics-out m.prom || fail "resumed leg"
            same axis
            at_least "$WORK/axis/m_first.prom" "the first leg's"
            # A resume re-learns, so the two legs together count at least
            # what one uninterrupted run counts.
            at_least "$REF/base/m.prom" "an uninterrupted run's"
            ;;
        crash)
            (export CICHAR_CRASH_TRACE="$WORK/trace.txt" && run trace) ||
                fail "traced run"
            same trace
            # Every crash point at its first hit, and at its last when it
            # is hit more than once (a ledger's first commit opens the
            # campaign, its last seals it).
            awk '{ if ($2 + 0 > last[$1] + 0) last[$1] = $2 + 0 }
                 END { for (s in last) { print s; if (last[s] > 1) print s ":" last[s] } }' \
                "$WORK/trace.txt" | sort > "$WORK/points.txt"
            [ -s "$WORK/points.txt" ] || fail "the traced run visited no crash point"
            while IFS= read -r point; do
                dir=kill_$(echo "$point" | tr '.:' '__')
                killed "$dir" "$point"
                resumed "$dir"
                same "$dir"
                compacted "$dir"
                diff -r "$REF/ref/LC" "$WORK/$dir/LC" > /dev/null ||
                    fail "$point: compacted ledger differs from the reference's"
            done < "$WORK/points.txt"
            ;;
        statuscrash)
            killed axis obs.status.pre_commit:2 --status S --status-interval 0.05
            "$CLI" status "$WORK/axis/S" > /dev/null ||
                fail "the feed does not render after the kill"
            resumed axis --status S
            same axis
            finished "$WORK/axis/S"
            ;;
    esac
    echo "identity($ROW): PASS"
}

for ROW in "$@"; do
    if classes | grep -qx "$ROW"; then
        reference "$ROW"
    else
        run_row
    fi
done
