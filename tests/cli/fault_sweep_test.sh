#!/usr/bin/env bash
# Errno-injection sweep for the I/O seam -- the errno twin of
# crash_recovery_test.sh.
#
#   fault_sweep_test.sh <path-to-semis_cli>
#
# For every I/O operation class and site index n, run
# `semis_cli update --stream ... --compact --resort` with
# SEMIS_FAULT_SPEC="<op>:<n>:ENOSPC:sticky" (see src/io/env.h): from the
# n-th operation of that class on, every one fails with ENOSPC -- a disk
# that fills at site n and stays full. The run must then prove:
#
#   1. it fails CLEANLY: exit 0 (fault absorbed or op class exhausted) or
#      exit 1 with the injected errno reported as an IOError, never as a
#      Corruption -- never a signal, a hang, or a usage error;
#   2. the store it leaves behind passes `fsck --gc` (no torn publish,
#      every orphan collectable) and still serves a consistent set via an
#      empty-stream `update --verify` -- both run fault-free;
#   3. a fresh pristine copy retried without faults reproduces the golden
#      output byte for byte (the fault left no trace outside its store);
#   4. if the faulted run exited 0 WITH a fault injected, its own output
#      already equals the golden bytes (absorbed means absorbed).
#
# A second, transient sweep replays the retryable sites (open / sync /
# syncdir / rename) with a once-only EIO: the retry policy must absorb
# every one of them -- exit 0 and golden-identical output, with the
# injection announced on stderr.
#
# The sweep walks n = 1, 2, ... until a run no longer reaches op #n
# (exit 0 with no "SEMIS_FAULT_INJECTED" announcement on stderr), so new
# I/O sites are covered automatically; MAX_SITES only bounds runaway.
#
# Geometry 3:2 forks compaction's range workers: the 2 000-vertex graph
# gives 3 shards of about 667 records each, which a compaction at 2
# threads cuts into up to 8 record ranges, each opening its shard on a
# worker. Every such per-range open (and read) is a site of the sweep.
#
# Environment knobs (the nightly sweep widens these):
#   FAULT_OPS          op classes to sweep (default "open read write
#                      sync syncdir rename link remove stat")
#   FAULT_SEEDS        graph seeds, space-separated        (default "7")
#   FAULT_GEOMS        "shards:threads" pairs              (default "1:1 3:2")
#   MAX_SITES          sweep upper bound per op class      (default 400)
#   FAULT_SCRATCH_DIR  scratch root; kept (not deleted) when set, so CI
#                      can upload the tree of a failing sweep
set -u

CLI="$1"

if [ -n "${FAULT_SCRATCH_DIR:-}" ]; then
  work="$FAULT_SCRATCH_DIR"
  mkdir -p "$work"
else
  work="$(mktemp -d "${TMPDIR:-/tmp}/semis-fault.XXXXXX")"
  trap 'rm -rf "$work"' EXIT
fi

OPS="${FAULT_OPS:-open read write sync syncdir rename link remove stat}"
SEEDS="${FAULT_SEEDS:-7}"
GEOMS="${FAULT_GEOMS:-1:1 3:2}"
MAX_SITES="${MAX_SITES:-400}"

fail() {
  echo "FAIL: $*" >&2
  echo "FAIL: scratch tree: $work" >&2
  exit 1
}

# Same stream as the crash sweep: degree-changing inserts and deletes so
# --compact clears the sorted flag and --resort re-sorts (maximizing the
# I/O sites a sweep visits).
cat > "$work/updates.txt" <<'EOF'
+ 0 1999
+ 1 1998
+ 2 1997
- 0 1999
+ 5 1500
+ 7 8
+ 100 200
+ 3 1996
- 7 8
+ 11 1200
EOF
printf '# empty recovery stream\n' > "$work/empty.txt"

# copy_store <src-manifest> <dst-manifest>: manifest + shard payloads.
copy_store() {
  cp "$1" "$2"
  local f
  for f in "$1".shard*; do
    cp "$f" "$2${f#"$1"}"
  done
}

total_faults=0
total_absorbed=0
for seed in $SEEDS; do
  "$CLI" generate --vertices 2000 --avg-degree 4 --seed "$seed" \
      --out "$work/g$seed.adj" >/dev/null || fail "generate (seed $seed)"
  "$CLI" sort "$work/g$seed.adj" "$work/g$seed.sadj" --memory-mb 8 \
      >/dev/null || fail "sort (seed $seed)"

  for geom in $GEOMS; do
    shards="${geom%%:*}"
    threads="${geom##*:}"
    ctx="seed=$seed shards=$shards threads=$threads"
    pristine="$work/p_${seed}_${shards}.sadjs"
    if [ ! -e "$pristine" ]; then
      "$CLI" shard "$work/g$seed.sadj" "$pristine" --shards "$shards" \
          >/dev/null || fail "shard ($ctx)"
    fi

    # Fault-free golden run: every retried/absorbed run below must
    # reproduce these bytes.
    golden="$work/golden_${seed}_${shards}_${threads}.txt"
    golden_store="$work/gs_${seed}_${shards}_${threads}.sadjs"
    copy_store "$pristine" "$golden_store"
    "$CLI" update "$golden_store" --stream "$work/updates.txt" --batch 3 \
        --threads "$threads" --compact --resort --verify --out "$golden" \
        >/dev/null || fail "golden run ($ctx)"

    # ---- permanent sweep: sticky ENOSPC at every site of every op ----
    for op in $OPS; do
      exhausted=""
      for n in $(seq 1 "$MAX_SITES"); do
        run="$work/run_${seed}_${shards}_${threads}_${op}_$n"
        store="$run/s.sadjs"
        mkdir -p "$run"
        copy_store "$pristine" "$store"

        SEMIS_FAULT_SPEC="$op:$n:ENOSPC:sticky" "$CLI" update "$store" \
            --stream "$work/updates.txt" --batch 3 --threads "$threads" \
            --compact --resort --out "$run/out.txt" \
            >"$run/run.log" 2>"$run/run.err"
        status=$?

        if ! grep -q "SEMIS_FAULT_INJECTED op=$op" "$run/run.err"; then
          # Op #n was never reached: the op class is swept end to end.
          [ "$status" -eq 0 ] \
              || fail "$op:$n never fired yet exited $status ($ctx)"
          exhausted="$n"
          rm -rf "$run"
          break
        fi
        total_faults=$((total_faults + 1))

        # 1. Clean failure contract: a Status error or a survived run --
        # never a crash (signals land at 128+N), never usage (2).
        if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
          fail "$op:$n exited $status, want 0 or 1 ($ctx)"
        fi
        if [ "$status" -eq 0 ]; then
          # 4. Survived WITH the fault injected: only acceptable if the
          # output is already golden (the fault was genuinely absorbed).
          cmp -s "$run/out.txt" "$golden" \
              || fail "$op:$n survived but output differs from golden ($ctx)"
          total_absorbed=$((total_absorbed + 1))
        else
          # The fault is an errno, so the run must report an I/O error:
          # a Corruption would call a healthy store damaged.
          grep -q "IOError" "$run/run.err" \
              || fail "$op:$n failed without reporting an IOError ($ctx)"
          ! grep -q "Corruption" "$run/run.err" \
              || fail "$op:$n reported an I/O fault as Corruption ($ctx)"
        fi

        # 2. The store is never torn: fsck --gc passes and an empty
        # stream serves a consistent, verifiable set (both fault-free).
        "$CLI" fsck "$store" --gc >"$run/fsck.log" 2>&1 \
            || fail "fsck --gc failed after $op:$n ($ctx)"
        "$CLI" update "$store" --stream "$work/empty.txt" --compact --verify \
            --threads "$threads" --out "$run/served.txt" \
            >"$run/serve.log" 2>&1 \
            || fail "store unservable after $op:$n ($ctx)"

        # 3. A pristine retry without faults reproduces the golden bytes.
        retry="$run/retry.sadjs"
        copy_store "$pristine" "$retry"
        "$CLI" update "$retry" --stream "$work/updates.txt" --batch 3 \
            --threads "$threads" --compact --resort --verify \
            --out "$run/retry.txt" >"$run/retry.log" 2>&1 \
            || fail "pristine retry failed after $op:$n ($ctx)"
        cmp -s "$run/retry.txt" "$golden" \
            || fail "pristine retry differs from golden after $op:$n ($ctx)"

        rm -rf "$run"
      done
      [ -n "$exhausted" ] \
          || fail "$op sweep hit MAX_SITES=$MAX_SITES ($ctx)"
      echo "swept $((exhausted - 1)) $op sites ($ctx)"
    done

    # ---- transient sweep: once-only EIO at every retryable site ------
    # (rename is excluded: only the epoch root-pointer rename retries --
    # the in-process journal tests cover it -- while manifest renames
    # propagate the first error by design.)
    for op in open sync syncdir; do
      for n in $(seq 1 "$MAX_SITES"); do
        run="$work/t_${seed}_${shards}_${threads}_${op}_$n"
        store="$run/s.sadjs"
        mkdir -p "$run"
        copy_store "$pristine" "$store"

        SEMIS_FAULT_SPEC="$op:$n:EIO" "$CLI" update "$store" \
            --stream "$work/updates.txt" --batch 3 --threads "$threads" \
            --compact --resort --verify --out "$run/out.txt" \
            >"$run/run.log" 2>"$run/run.err"
        status=$?

        if ! grep -q "SEMIS_FAULT_INJECTED op=$op" "$run/run.err"; then
          [ "$status" -eq 0 ] \
              || fail "transient $op:$n never fired yet exited $status ($ctx)"
          rm -rf "$run"
          break
        fi
        total_faults=$((total_faults + 1))
        # Every retryable site must absorb a single transient hiccup and
        # still produce the golden bytes.
        [ "$status" -eq 0 ] \
            || fail "transient $op:$n was not absorbed (exit $status) ($ctx)"
        cmp -s "$run/out.txt" "$golden" \
            || fail "transient $op:$n absorbed but output differs ($ctx)"
        total_absorbed=$((total_absorbed + 1))
        rm -rf "$run"
      done
    done
  done
done

# A sweep that never injected anything proves nothing -- guard against
# the announcement (or the injection machinery) rotting away.
[ "$total_faults" -gt 0 ] || fail "no fault was ever injected"
[ "$total_absorbed" -gt 0 ] || fail "no fault was ever absorbed by a retry"

echo "PASS: $total_faults faulted runs survived cleanly" \
     "($total_absorbed absorbed)"
