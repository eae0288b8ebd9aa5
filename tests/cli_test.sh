#!/usr/bin/env bash
# End-to-end checks of the blockoptr CLI.
#
# usage: cli_test.sh CASE BLOCKOPTR WORKDIR
#   run_exports          `run` at one and two channels with every export flag
#                        writes exactly the expected file set
#   sweep_exports        `sweep --set=channels` writes one file per point and
#                        channel, and its stdout does not depend on exports
#                        or --jobs
#   malformed_numbers    malformed numeric flags exit non-zero with
#                        "error: --<flag>: ..."
#   unwritable_exports   an export path that cannot be opened exits 1 in
#                        single-channel run, two-channel run and sweep mode
set -u

CASE=$1
BIN=$2
WORK=$3

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

fresh_dir() {
  rm -rf "$1"
  mkdir -p "$1"
}

# Every export flag, with paths inside $1.
export_flags() {
  echo "--trace-out=$1/t.json --trace-csv=$1/t.csv --metrics-out=$1/m.json" \
       "--prom-out=$1/p.prom --report-out=$1/r.html --txtrace-out=$1/x.json" \
       "--out-log=$1/l.csv --out-json=$1/l.json --out-xes=$1/l.xes" \
       "--out-dot=$1/l.dot --mine"
}

# expect_files DIR NAME... : DIR holds exactly the non-empty files NAME...
expect_files() {
  local dir=$1
  shift
  local want got
  want=$(printf '%s\n' "$@" | sort)
  got=$(ls "$dir" | sort)
  [ "$want" == "$got" ] ||
    fail "$dir: expected files"$'\n'"$want"$'\n'"got"$'\n'"$got"
  for f in "$@"; do
    [ -s "$dir/$f" ] || fail "$dir/$f is empty"
  done
}

run_exports() {
  local one=$WORK/one two=$WORK/two
  fresh_dir "$one"
  fresh_dir "$two"
  # shellcheck disable=SC2046
  "$BIN" run --txs=300 --stream-analysis $(export_flags "$one") \
    > "$WORK/one.txt" || fail "single-channel run exited $?"
  expect_files "$one" t.json t.csv m.json p.prom r.html x.json \
    l.csv l.json l.xes l.dot
  grep -q "per-stage latency breakdown" "$WORK/one.txt" ||
    fail "single-channel run printed no stage breakdown"
  grep -q '"channel"' "$one/m.json" && fail "single-channel metrics carry a channel"

  # shellcheck disable=SC2046
  "$BIN" run --txs=300 --stream-analysis --channels=2 --sim-threads=2 \
    $(export_flags "$two") > "$WORK/two.txt" ||
    fail "two-channel run exited $?"
  local files=(x.json)
  for c in 0 1; do
    files+=(t-$c.json t-$c.csv m-$c.json p-$c.prom r-$c.html x-$c.json
            l-$c.csv l-$c.json l-$c.xes l-$c.dot)
  done
  expect_files "$two" "${files[@]}"
  grep -q "per-channel breakdown (2 channels" "$WORK/two.txt" ||
    fail "two-channel run printed no per-channel breakdown"
  grep -q 'channel="1"' "$two/p-1.prom" || fail "p-1.prom has no channel label"
  grep -q '"channel": 1' "$two/m-1.json" || fail "m-1.json has no channel field"
}

sweep_exports() {
  local out=$WORK/out
  fresh_dir "$out"
  "$BIN" sweep --set=channels --txs=400 --jobs=2 --metrics-out="$out/m.json" \
    --prom-out="$out/p.prom" > "$WORK/exports.txt" 2> /dev/null ||
    fail "sweep with exports exited $?"
  "$BIN" sweep --set=channels --txs=400 > "$WORK/plain.txt" 2> /dev/null ||
    fail "sweep exited $?"
  diff "$WORK/plain.txt" "$WORK/exports.txt" ||
    fail "sweep stdout depends on exports or --jobs"
  # The channels set: points 1-3 run four channels, point 4 runs eight.
  local files=()
  for point in 1 2 3 4; do
    local channels=4
    [ $point == 4 ] && channels=8
    for ((c = 0; c < channels; ++c)); do
      files+=(m-$point-$c.json p-$point-$c.prom)
    done
  done
  expect_files "$out" "${files[@]}"
  grep -q 'channel="7"' "$out/p-4-7.prom" || fail "p-4-7.prom has no channel label"
}

malformed_numbers() {
  local flag
  for flag in --txs=abc --txs= --txs --txs=12x --txs=99999999999 \
              --rate=abc --rate=nan --orgs=2.5 --block-count=-5 \
              --txtrace-ring=-1 --seed=-1 --sim-epoch=1s \
              --channel-weights=1,x; do
    local name=${flag%%=*}
    timeout 60 "$BIN" run "$flag" > /dev/null 2> "$WORK/err.txt"
    local rc=$?
    [ $rc -ne 0 ] || fail "run $flag exited 0"
    [ $rc -ne 124 ] || fail "run $flag timed out"
    grep -q "^error: $name: " "$WORK/err.txt" ||
      fail "run $flag: unexpected stderr: $(cat "$WORK/err.txt")"
  done
  timeout 60 "$BIN" sweep --rates=100,abc > /dev/null 2> "$WORK/err.txt" &&
    fail "sweep --rates=100,abc exited 0"
  grep -q "^error: --rates: " "$WORK/err.txt" ||
    fail "sweep --rates: unexpected stderr: $(cat "$WORK/err.txt")"
}

unwritable_exports() {
  local missing=$WORK/missing/out.json
  local rc
  "$BIN" run --txs=200 --metrics-out="$missing" > /dev/null 2>&1
  rc=$?
  [ $rc -eq 1 ] || fail "single-channel run exited $rc"
  "$BIN" run --txs=200 --channels=2 --out-log="$missing" > /dev/null 2>&1
  rc=$?
  [ $rc -eq 1 ] || fail "two-channel run exited $rc"
  "$BIN" sweep --set=channels --txs=200 --prom-out="$missing" > /dev/null 2>&1
  rc=$?
  [ $rc -eq 1 ] || fail "sweep exited $rc"
}

fresh_dir "$WORK"
case $CASE in
  run_exports | sweep_exports | malformed_numbers | unwritable_exports) $CASE ;;
  *) fail "unknown case '$CASE'" ;;
esac
echo "PASS: $CASE"
