#!/usr/bin/env bash
# End-to-end smoke test for semis_cli, registered with CTest.
#
#   cli_smoke_test.sh <path-to-semis_cli>
#
# Covers the usage exit-code contract (bad usage -> non-zero, --help -> 0)
# and the full pipeline: generate -> convert -> sort -> solve --verify.
set -u

CLI="$1"
work="$(mktemp -d "${TMPDIR:-/tmp}/semis-cli-smoke.XXXXXX")"
trap 'rm -rf "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# --- usage exit codes and streams ------------------------------------------
"$CLI" >/dev/null 2>&1 && fail "no-argument invocation exited 0"
"$CLI" frobnicate >/dev/null 2>&1 && fail "unknown command exited 0"
"$CLI" solve >/dev/null 2>&1 && fail "solve with no input exited 0"
"$CLI" generate >/dev/null 2>&1 && fail "generate with no flags exited 0"
"$CLI" --help >/dev/null 2>&1 || fail "--help exited non-zero"
"$CLI" help >/dev/null 2>&1 || fail "help exited non-zero"
"$CLI" solve --help >/dev/null 2>&1 || fail "solve --help exited non-zero"
# Help goes to stdout; usage-on-error goes to stderr only.
[ -n "$("$CLI" --help 2>/dev/null)" ] || fail "--help printed nothing on stdout"
[ -z "$("$CLI" frobnicate 2>/dev/null)" ] || fail "usage error wrote to stdout"
[ -n "$("$CLI" frobnicate 2>&1 >/dev/null)" ] || fail "usage error silent on stderr"

# Malformed numeric flags exit 1 with an error that names the flag,
# before any I/O: no garbage read as 0, no negative wrapped to 2^32-1.
# (Also called once `set -e` is on, hence the `|| rc=$?`.)
expect_flag_error() {  # <flag> <semis_cli args...>
  local flag="$1" err rc=0
  shift
  err="$("$CLI" "$@" 2>&1 >/dev/null)" || rc=$?
  [ "$rc" -eq 1 ] || fail "'$*' exited $rc, want 1"
  case "$err" in
    *"--$flag"*) ;;
    *) fail "'$*' did not name --$flag: $err" ;;
  esac
}
none="$work/none"
expect_flag_error rounds solve "$none.adj" --rounds abc
expect_flag_error rounds solve "$none.adj" --rounds -1
expect_flag_error shards solve "$none.adj" --shards 4097
expect_flag_error threads solve "$none.adj" --threads 2x
expect_flag_error rounds engine "$none.adj" --script "$none.txt" --rounds ""
expect_flag_error compact-threshold update "$none.adj" --stream "$none.txt" \
    --compact-threshold bogus
expect_flag_error compact-threshold engine "$none.adj" --script "$none.txt" \
    --compact-threshold -5
expect_flag_error vertices generate --vertices abc --out "$none.adj"
expect_flag_error seed generate --vertices 10 --seed 7x --out "$none.adj"
expect_flag_error avg-degree generate --vertices 10 --avg-degree 4x \
    --out "$none.adj"
expect_flag_error beta generate --vertices 10 --beta "" --out "$none.adj"
[ -e "$none.adj" ] && fail "generate wrote a graph despite a malformed flag"

# A malformed line of an update stream or a session script exits 1 with
# an error that names the file and the line number. (Called once `set -e`
# is on, hence the `|| rc=$?`.)
expect_line_error() {  # <file> <line> <semis_cli args...>
  local file="$1" line="$2" err rc=0
  shift 2
  err="$("$CLI" "$@" 2>&1 >/dev/null)" || rc=$?
  [ "$rc" -eq 1 ] || fail "'$*' exited $rc, want 1"
  case "$err" in
    *"'$file' line $line:"*) ;;
    *) fail "'$*' did not name $file line $line: $err" ;;
  esac
}
expect_flag_error memory-mb sort "$none.adj" "$none.sadj" --memory-mb 8MB
expect_flag_error memory-mb convert "$none.txt" "$none.adj" --memory-mb -8
expect_flag_error fan-in sort "$none.adj" "$none.sadj" --fan-in 1
expect_flag_error mis-rounds color "$none.sadj" --mis-rounds -3

# --- pipeline on a generated PLRG graph ------------------------------------
set -e
"$CLI" generate --vertices 2000 --avg-degree 4 --seed 7 --out "$work/g.adj"
"$CLI" stats "$work/g.adj"
# bound's stars follow record order: it warns (and still succeeds) on a
# file not flagged degree-sorted, and is silent on a sorted one.
"$CLI" bound "$work/g.adj" 2> "$work/bound.err"
grep -q "g.adj is not flagged degree-sorted" "$work/bound.err" \
    || fail "bound printed no warning for an unsorted input"
"$CLI" sort "$work/g.adj" "$work/g.sadj" --memory-mb 8
"$CLI" bound "$work/g.sadj" 2> "$work/bound_sorted.err"
[ -s "$work/bound_sorted.err" ] && fail "bound warned about a sorted input"
"$CLI" solve "$work/g.sadj" --algo twok --verify --out "$work/set.txt"
[ -s "$work/set.txt" ] || fail "solve --out produced an empty member list"

# --- sharded / parallel path ------------------------------------------------
"$CLI" shard "$work/g.sadj" "$work/g.sadjs" --shards 4
[ -s "$work/g.sadjs" ] || fail "shard produced no manifest"
[ -s "$work/g.sadjs.shard0" ] || fail "shard produced no shard files"
"$CLI" solve "$work/g.sadj" --algo twok --shards 4 --threads 2 --verify \
    --stats --out "$work/set_par.txt" > "$work/solve_par.log" \
    || fail "parallel solve exited non-zero"
[ -s "$work/set_par.txt" ] || fail "parallel solve produced an empty list"
# --stats must surface the decode counters on the sharded path.
grep -q "decode pipeline: " "$work/solve_par.log" \
    || fail "solve --stats printed no decode pipeline line"
# Determinism contract: thread count must not change the result.
"$CLI" solve "$work/g.sadj" --algo twok --shards 4 --threads 1 \
    --stats --out "$work/set_seq.txt" > "$work/solve_seq.log"
cmp -s "$work/set_par.txt" "$work/set_seq.txt" \
    || fail "parallel result differs between 1 and 2 threads"
# Nor the swap stage's scan count, which --stats reports on its own line.
swap_scans() {
  sed -n 's/^  swap stage     : [0-9]* rounds, \([0-9]*\) scans,.*/\1/p' "$1"
}
par_scans="$(swap_scans "$work/solve_par.log")"
[ -n "$par_scans" ] || fail "solve --stats printed no swap-stage scan count"
[ "$par_scans" = "$(swap_scans "$work/solve_seq.log")" ] \
    || fail "swap-stage scan count differs between 1 and 2 threads"
grep -q "^  sort           : skipped" "$work/solve_par.log" \
    || fail "solve --stats did not report the skipped sort of sorted input"
# --threads 0 runs one thread per CPU: the summary names the count the
# run used.
"$CLI" solve "$work/g.sadj" --algo twok --shards 4 --threads 0 --stats \
    --out "$work/set_auto.txt" > "$work/solve_auto.log" \
    || fail "--threads 0 solve exited non-zero"
cmp -s "$work/set_auto.txt" "$work/set_seq.txt" \
    || fail "--threads 0 result differs from the 1-thread result"
auto_threads="$(sed -n 's/^  sharded pipeline: [0-9]* shards, \([0-9]*\) threads,.*/\1/p' \
    "$work/solve_auto.log")"
[ -n "$auto_threads" ] || fail "--threads 0 solve printed no thread count"
[ "$auto_threads" -ge 1 ] \
    || fail "--threads 0 solve reported $auto_threads threads"

# Sharded GREEDY contract: with no swap stage the sharded, multi-threaded
# pipeline must reproduce the plain sequential solve byte for byte, for
# every shard/thread combination.
"$CLI" solve "$work/g.sadj" --algo greedy --out "$work/greedy_seq.txt"
for shards in 1 3; do
  for threads in 1 2; do
    "$CLI" solve "$work/g.sadj" --algo greedy --shards "$shards" \
        --threads "$threads" --out "$work/greedy_par.txt"
    cmp -s "$work/greedy_par.txt" "$work/greedy_seq.txt" \
        || fail "sharded greedy differs at $shards shards / $threads threads"
  done
done

# --- rounds engine -----------------------------------------------------------
# Unknown engines are rejected with exit 1 before any I/O happens.
if "$CLI" solve "$work/g.sadj" --engine frobnicate >/dev/null 2>&1; then
  fail "unknown --engine exited 0"
fi
# The min-id rounds engine solves, verifies, and reports its counters.
"$CLI" solve "$work/g.sadj" --engine rounds --algo greedy --shards 4 \
    --threads 2 --verify --stats --out "$work/rounds.txt" \
    > "$work/rounds.log" || fail "solve --engine rounds exited non-zero"
[ -s "$work/rounds.txt" ] || fail "rounds solve produced an empty list"
grep -q "rounds engine" "$work/rounds.log" \
    || fail "rounds --stats printed no rounds-engine counters"
grep -q "final frontier 0" "$work/rounds.log" \
    || fail "rounds --stats reported a non-empty final frontier"
# Determinism contract: the set AND the algorithmic transcript lines
# (set sizes, stage counts, rounds counters -- everything but wall time
# and geometry-scaled IO counters) are invariant across every
# shard/thread geometry (min-id rounds is a pure function of the graph,
# unlike the swap stage it can feed).
algo_lines() {
  grep -E "independent set:|stage :|degree_sorted=|rounds engine" "$1"
}
algo_lines "$work/rounds.log" > "$work/rounds.norm"
for shards in 1 3; do
  for threads in 1 2; do
    "$CLI" solve "$work/g.sadj" --engine rounds --algo greedy \
        --shards "$shards" --threads "$threads" --stats \
        --out "$work/rounds_g.txt" > "$work/rounds_g.log" \
        || fail "rounds solve exited non-zero ($shards/$threads)"
    cmp -s "$work/rounds_g.txt" "$work/rounds.txt" \
        || fail "rounds set differs at $shards shards / $threads threads"
    algo_lines "$work/rounds_g.log" > "$work/rounds_g.norm"
    cmp -s "$work/rounds_g.norm" "$work/rounds.norm" \
        || fail "rounds transcript differs at $shards shards / $threads threads"
  done
done
# The full pipeline (rounds seeding the two-k swap) verifies too.
"$CLI" solve "$work/g.sadj" --engine rounds --algo twok --shards 4 \
    --threads 2 --verify >/dev/null \
    || fail "rounds + twok pipeline failed --verify"

# --- streaming edge updates (shard -> stream -> compact -> solve) ----------
cat > "$work/updates.txt" <<'EOF'
# mixed insert/delete stream; ids are valid for the 2000-vertex graph
+ 0 1
+ 12 1500
- 0 1
+ 7 8
+ 3 1999
- 3 4
+ 100 200
- 12 1500
EOF
# One sharded copy per invocation: update mutates the overlay in place.
for t in 1 2; do
  "$CLI" shard "$work/g.sadj" "$work/gu$t.sadjs" --shards 4 >/dev/null
  "$CLI" update "$work/gu$t.sadjs" --stream "$work/updates.txt" \
      --threads "$t" --batch 3 --out "$work/upd$t.txt" >/dev/null
  [ -s "$work/upd$t.txt" ] || fail "update --out produced an empty list"
done
# Determinism contract: thread count must not change the maintained set.
cmp -s "$work/upd1.txt" "$work/upd2.txt" \
    || fail "update result differs between 1 and 2 threads"

# --- each command reads only the flags it declares -------------------------
# Any other flag exits 1 with an error naming the flag and the command,
# before any I/O. Each of these used to exit 0 and ignore its flag; the
# --shard typo (for --shards) solved on one shard.
expect_flag_error shard solve "$work/g.adj" --shard 8 --threads 4
expect_flag_error memory-mb solve "$work/g.adj" --memory-mb 64
expect_flag_error algo update "$work/gu1.sadjs" --stream "$work/updates.txt" \
    --algo twok
expect_flag_error threads cover "$work/g.adj" --threads 4
expect_flag_error shards stats "$work/g.adj" --shards 4
expect_flag_error shards fsck "$work/gu1.sadjs" --shards 3
"$CLI" solve "$work/g.adj" --shard 8 2>&1 >/dev/null \
    | grep -q "unknown flag --shard for command 'solve'" \
    || fail "the unknown-flag error did not name the flag and the command"

# Round trip: compact folds the delta into the shards; unshard + sort +
# solve consume the updated graph end to end.
"$CLI" shard "$work/g.sadj" "$work/gc.sadjs" --shards 4 >/dev/null
"$CLI" update "$work/gc.sadjs" --stream "$work/updates.txt" --threads 2 \
    --batch 3 --compact --verify --out "$work/updc.txt"
cmp -s "$work/updc.txt" "$work/upd1.txt" \
    || fail "compaction changed the maintained set"
"$CLI" unshard "$work/gc.sadjs" "$work/gc.adj"
"$CLI" sort "$work/gc.adj" "$work/gc.sadj" --memory-mb 8
"$CLI" solve "$work/gc.sadj" --algo twok --verify >/dev/null

# --- degraded-order reporting -----------------------------------------------
# The compaction above rewrote records, clearing gc.sadjs's degree-sorted
# flag: sorted-order algorithms must warn on stderr and report the flag
# under --stats.
"$CLI" solve "$work/gc.sadjs" --algo greedy --stats \
    > "$work/deg.log" 2> "$work/deg.err" \
    || fail "solve on a compacted manifest exited non-zero"
grep -q "degree_sorted=false" "$work/deg.log" \
    || fail "solve --stats did not report degree_sorted=false"
grep -q "not degree-sorted" "$work/deg.err" \
    || fail "solve printed no degraded-order warning on stderr"
"$CLI" update "$work/gc.sadjs" --stream "$work/updates.txt" --batch 8 \
    --stats > "$work/updeg.log" 2> "$work/updeg.err" \
    || fail "update on a compacted manifest exited non-zero"
grep -q "degree_sorted=false" "$work/updeg.log" \
    || fail "update --stats did not report degree_sorted=false"
grep -q "not degree-sorted" "$work/updeg.err" \
    || fail "update printed no degraded-order warning on stderr"
# A freshly sharded (still degree-sorted) manifest: flag true, no warning.
"$CLI" shard "$work/g.sadj" "$work/gs.sadjs" --shards 2 >/dev/null
"$CLI" solve "$work/gs.sadjs" --algo greedy --stats \
    > "$work/degok.log" 2> "$work/degok.err" \
    || fail "solve on a sorted manifest exited non-zero"
grep -q "degree_sorted=true" "$work/degok.log" \
    || fail "solve --stats did not report degree_sorted=true"
grep -q "not degree-sorted" "$work/degok.err" \
    && fail "solve warned about a sorted manifest"
# The degraded-order warning reports the re-sort status so the operator
# knows whether the order will come back on its own.
grep -q "Background re-sort: not scheduled" "$work/updeg.err" \
    || fail "update warning did not report the re-sort status"

# --- background re-sort + fsck ----------------------------------------------
# gc.sadjs is still not degree-sorted: an update with --resort announces
# the plan at open time, restores (degree, id) order off the back of the
# compaction, and reports completion on stderr.
"$CLI" update "$work/gc.sadjs" --stream "$work/updates.txt" --batch 8 \
    --compact --resort --verify --stats \
    > "$work/resort.log" 2> "$work/resort.err" \
    || fail "update --resort exited non-zero"
grep -q "Background re-sort: scheduled" "$work/resort.err" \
    || fail "update --resort did not announce the scheduled re-sort"
grep -q "background re-sort complete" "$work/resort.err" \
    || fail "update --resort reported no completion"
grep -q "degree-sorted order restored" "$work/resort.err" \
    || fail "update --resort did not confirm the restored order"
grep -q "degree_sorted=true" "$work/resort.log" \
    || fail "update --stats did not report degree_sorted=true after re-sort"
# Storage-only contract: the re-sorted store solves to the same set as
# the compacted one did before the re-sort.
"$CLI" solve "$work/gc.sadjs" --algo greedy --stats > "$work/degsrt.log" \
    2> "$work/degsrt.err" || fail "solve after re-sort exited non-zero"
grep -q "degree_sorted=true" "$work/degsrt.log" \
    || fail "solve --stats does not see the restored flag"
grep -q "not degree-sorted" "$work/degsrt.err" \
    && fail "solve warned about a re-sorted manifest"

# fsck: the compacted store is epoch-journaled and clean; a freshly
# sharded one is still the legacy layout.
"$CLI" fsck "$work/gc.sadjs" > "$work/fsck.log" \
    || fail "fsck on a journaled store exited non-zero"
grep -q "journaled store" "$work/fsck.log" \
    || fail "fsck did not identify the journaled store"
grep -q "no orphaned files" "$work/fsck.log" \
    || fail "fsck found orphans after a clean re-sort"
"$CLI" fsck "$work/gc.sadjs" --gc >/dev/null || fail "fsck --gc exited non-zero"
"$CLI" fsck "$work/gs.sadjs" > "$work/fsck_legacy.log" \
    || fail "fsck on a legacy store exited non-zero"
grep -q "legacy store" "$work/fsck_legacy.log" \
    || fail "fsck did not identify the legacy store"
"$CLI" fsck >/dev/null 2>&1 && fail "fsck with no input exited 0"

# --- engine lifecycle session ------------------------------------------------
cat > "$work/session.txt" <<'EOF'
# scripted open -> serve -> mutate -> republish session
query 0 1 2
+ 0 1
+ 7 8
apply
repair
publish
- 0 1
apply
repair
compact
publish
query 0 1
EOF
for t in 1 2; do
  "$CLI" shard "$work/g.sadj" "$work/ge$t.sadjs" --shards 4 >/dev/null
  "$CLI" engine "$work/ge$t.sadjs" --script "$work/session.txt" \
      --algo greedy --threads "$t" --stats --out "$work/eng$t.txt" \
      > "$work/eng$t.log" || fail "engine session exited non-zero ($t threads)"
  [ -s "$work/eng$t.txt" ] || fail "engine --out produced an empty list"
done
# Determinism contract: the epoch sequence (and the whole session
# transcript) is thread-count independent.
cmp -s "$work/eng1.txt" "$work/eng2.txt" \
    || fail "engine result differs between 1 and 2 threads"
# (normalize the per-run file paths the transcript embeds)
for t in 1 2; do
  sed -e "s|ge$t\.sadjs|geN.sadjs|" -e "s|eng$t\.txt|engN.txt|" \
      "$work/eng$t.log" > "$work/eng$t.norm"
done
cmp -s "$work/eng1.norm" "$work/eng2.norm" \
    || fail "engine transcript differs between 1 and 2 threads"
grep -q "^opened .*epoch 1" "$work/eng1.log" || fail "engine printed no open line"
grep -q "^published epoch 2:" "$work/eng1.log" \
    || fail "engine published no epoch 2"
grep -q "^published epoch 3:" "$work/eng1.log" \
    || fail "engine published no epoch 3"
grep -q "^session end: epoch 3" "$work/eng1.log" \
    || fail "engine session did not end on epoch 3"
grep -q "degree_sorted=true" "$work/eng1.log" \
    || fail "engine --stats did not report degree_sorted"
# Bad scripts are rejected with a clean error.
printf 'frobnicate\n' > "$work/badsession.txt"
if "$CLI" engine "$work/ge1.sadjs" --script "$work/badsession.txt" \
    >/dev/null 2>&1; then
  fail "malformed session script exited 0"
fi
printf 'query 0\n\n# queue updates\n+ 1 2\n- 4\napply\n' \
    > "$work/badupdate_session.txt"
expect_line_error "$work/badupdate_session.txt" 5 \
    engine "$work/ge1.sadjs" --script "$work/badupdate_session.txt"
# One open path: a session on a monolithic input (the engine splits it
# into one shard in its scratch dir) equals the same session on a
# 1-shard copy -- the same set and the same transcript, mutations and
# two-k swaps included.
"$CLI" shard "$work/g.sadj" "$work/g1.sadjs" --shards 1 >/dev/null
for input in g.sadj g1.sadjs; do
  "$CLI" engine "$work/$input" --script "$work/session.txt" --algo twok \
      --threads 2 --stats --out "$work/eng_$input.txt" \
      > "$work/eng_$input.log" \
      || fail "two-k engine session on $input exited non-zero"
  sed -e "s|$input|INPUT|g" "$work/eng_$input.log" > "$work/eng_$input.norm"
done
cmp -s "$work/eng_g.sadj.txt" "$work/eng_g1.sadjs.txt" \
    || fail "monolithic engine session differs from the 1-shard session"
cmp -s "$work/eng_g.sadj.norm" "$work/eng_g1.sadjs.norm" \
    || fail "monolithic engine transcript differs from the 1-shard one"
grep -q "^session end: epoch 3" "$work/eng_g.sadj.log" \
    || fail "monolithic engine session did not end on epoch 3"

# update also accepts a monolithic input (shards it next to itself).
"$CLI" update "$work/g.sadj" --stream "$work/updates.txt" --shards 3 \
    --threads 2 --batch 4 --compact --verify >/dev/null
[ -s "$work/g.sadj.sadjs" ] || fail "update did not shard the monolithic input"
# Bad streams are rejected with a clean error.
printf 'x 1 2\n' > "$work/bad.txt"
"$CLI" shard "$work/g.sadj" "$work/gb.sadjs" --shards 2 >/dev/null
if "$CLI" update "$work/gb.sadjs" --stream "$work/bad.txt" >/dev/null 2>&1; then
  fail "malformed update stream exited 0"
fi
printf '+ 1 2\n# comment\n\n+ 3\n' > "$work/badline.txt"
expect_line_error "$work/badline.txt" 4 \
    update "$work/gb.sadjs" --stream "$work/badline.txt"

# --- pipeline from a hand-written edge list --------------------------------
printf '# toy graph\n0\t1\n1\t2\n2\t0\n2\t3\n3\t4\n4\t0\n' > "$work/edges.txt"
"$CLI" convert "$work/edges.txt" "$work/e.adj" --memory-mb 8
"$CLI" sort "$work/e.adj" "$work/e.sadj" --memory-mb 8
"$CLI" solve "$work/e.sadj" --algo onek --verify

# --- vertex counts past the 32-bit id space ---------------------------------
# The path 0-1-2-3 under headers that declare 2^63 + 4 vertices, a count
# both writers refuse: a SADJ file and a one-shard store whose manifest is
# flagged degree-sorted. Every command that reads one fails with exit 1
# and names the count; none aborts (exit 134) sizing a per-vertex array
# from it.
le32() {  # <value>: its four little-endian bytes
  printf "$(printf '\\x%02x\\x%02x\\x%02x\\x%02x' $(($1 & 255)) \
      $(($1 >> 8 & 255)) $(($1 >> 16 & 255)) $(($1 >> 24 & 255)))"
}
words() { for w in "$@"; do le32 "$w"; done; }
huge="4 2147483648"  # 2^63 + 4 as the low and high words of a u64
path_records="0 1 1  1 2 0 2  2 2 1 3  3 1 2"
# The layouts of graph/adjacency_file.h and graph/sharded_adjacency_file.h,
# word by word after the magic (the unquoted lists split on purpose).
{ printf 'SADJ'; words 1 $huge 6 0 0 2 $path_records; } > "$work/huge.sadj"
{ printf 'SADM'; words 1 $huge 6 0 1 2 1 0 $huge 6 0; } > "$work/huge.sadjs"
{ printf 'SADS'; words 1 0 0 0 0 0 0 $huge $path_records; } \
    > "$work/huge.sadjs.shard0"
[ "$(wc -c < "$work/huge.sadj")" -eq 88 ] || fail "huge.sadj has the wrong size"
[ "$(wc -c < "$work/huge.sadjs")" -eq 56 ] || fail "huge.sadjs has the wrong size"
expect_vertex_count_error() {  # <semis_cli args...>
  local err rc=0
  err="$("$CLI" "$@" 2>&1 >/dev/null)" || rc=$?
  [ "$rc" -eq 1 ] || fail "'$*' exited $rc, want 1"
  case "$err" in
    *"Corruption: "*"9223372036854775812 vertices, past the 32-bit id space"*) ;;
    *) fail "'$*' did not reject the vertex count: $err" ;;
  esac
}
for cmd in stats bound color cover solve; do
  expect_vertex_count_error "$cmd" "$work/huge.sadj"
done
expect_vertex_count_error sort "$work/huge.sadj" "$work/huge_sorted.sadj"
expect_vertex_count_error shard "$work/huge.sadj" "$work/huge_split.sadjs" \
    --shards 2
printf '+ 0 2\n' > "$work/huge_updates.txt"
printf 'publish\n' > "$work/huge_session.txt"
for flags in "" "--algo twok" "--engine rounds" "--threads 4"; do
  expect_vertex_count_error solve "$work/huge.sadjs" $flags
done
expect_vertex_count_error update "$work/huge.sadjs" \
    --stream "$work/huge_updates.txt"
expect_vertex_count_error engine "$work/huge.sadjs" \
    --script "$work/huge_session.txt"
expect_vertex_count_error fsck "$work/huge.sadjs"
expect_vertex_count_error cover "$work/huge.sadjs"
expect_vertex_count_error unshard "$work/huge.sadjs" "$work/huge_joined.sadj"

# --- a header that declares more edges than its records hold ----------------
# A 2000-vertex PLRG (5871 edges) whose SADJ header declares 12742 directed
# edges instead of 11742. Every command that reads it exits 1 with a
# Corruption naming the file, raised by the reader at the end of the
# records, not by a writer downstream.
"$CLI" generate --vertices 2000 --avg-degree 6 --seed 3 \
    --out "$work/edges.adj" >/dev/null
[ "$(od -An -t u8 -j 16 -N 8 "$work/edges.adj" | tr -d ' ')" = 11742 ] \
    || fail "edges.adj does not declare 11742 directed edges"
{ head -c 16 "$work/edges.adj"; words 12742 0; tail -c +25 "$work/edges.adj"; } \
    > "$work/inflated.adj"
expect_edge_total_error() {  # <semis_cli args...>
  local err rc=0
  err="$("$CLI" "$@" 2>&1 >/dev/null)" || rc=$?
  [ "$rc" -eq 1 ] || fail "'$*' exited $rc, want 1"
  case "$err" in
    *"Corruption: "*"$work/inflated.adj"*) ;;
    *) fail "'$*' did not report the edge total of inflated.adj: $err" ;;
  esac
}
for cmd in stats bound color cover solve; do
  expect_edge_total_error "$cmd" "$work/inflated.adj"
done
expect_edge_total_error sort "$work/inflated.adj" "$work/inflated_sorted.sadj"
expect_edge_total_error shard "$work/inflated.adj" \
    "$work/inflated_split.sadjs" --shards 2

# --- a read error at a stream's end is an I/O error --------------------------
# Each range a compaction reads has a buffer of exactly its bytes, so the
# shard's last range learns that the file ends only from one more read,
# in the scanner's end check. A fault there must fail `update` with that
# I/O error and degrade the engine with it, as a fault at any other read
# of the shard does. The sweep faults every read of the original shard
# file in turn; the last one is that end check.
"$CLI" generate --vertices 3000 --avg-degree 5 --seed 9 \
    --out "$work/eof.adj" >/dev/null
"$CLI" sort "$work/eof.adj" "$work/eof.sadj" >/dev/null
"$CLI" shard "$work/eof.sadj" "$work/eof.sadjs" --shards 1 >/dev/null
printf '+ 0 1\n+ 2 3\n+ 4 5\n+ 6 7\n' > "$work/eof_updates.txt"
last_read=0
for n in $(seq 1 200); do
  run="$work/eof_run"
  rm -rf "$run"
  mkdir "$run"
  cp "$work/eof.sadjs" "$run/s.sadjs"
  cp "$work/eof.sadjs.shard0" "$run/s.sadjs.shard0"
  rc=0
  SEMIS_FAULT_SPEC="read:$n:EIO@s.sadjs.shard0" "$CLI" update "$run/s.sadjs" \
      --stream "$work/eof_updates.txt" --batch 4 --threads 1 --compact \
      >/dev/null 2>"$work/eof_$n.err" || rc=$?
  if ! grep -q "SEMIS_FAULT_INJECTED" "$work/eof_$n.err"; then
    [ "$rc" -eq 0 ] || fail "update exited $rc with read $n never faulted"
    break
  fi
  [ "$rc" -eq 1 ] || fail "update with read $n faulted exited $rc, want 1"
  grep -q "error: IOError" "$work/eof_$n.err" \
      || fail "read $n faulted without an IOError: $(cat "$work/eof_$n.err")"
  grep -q "Corruption" "$work/eof_$n.err" \
      && fail "read $n faulted as a Corruption: $(cat "$work/eof_$n.err")"
  last_read="$n"
done
[ "$last_read" -gt 1 ] || fail "the end-check sweep faulted no shard read"
grep -q "note: engine degraded to read-only.*IOError" \
    "$work/eof_$last_read.err" \
    || fail "the end check's fault did not degrade the engine with its IOError"

# --- an I/O error during recovery is not a damaged epoch --------------------
# A store serving epoch 2 (previous 1) with four updates pending in epoch
# 2's logs. A read fault in epoch 2's files says nothing about them: a
# recovering `update` must fail with that IOError and leave the store
# serving epoch 2 with its four entries, at every read the session makes
# there, and `fsck --gc` must neither fall back nor collect epoch 2's
# files.
cat > "$work/crash_updates.txt" <<'EOF'
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
printf '+ 10 1900\n+ 20 1800\n+ 30 1700\n+ 40 1600\n' > "$work/four.txt"
printf '# empty stream\n' > "$work/empty.txt"
"$CLI" generate --vertices 2000 --avg-degree 4 --seed 7 \
    --out "$work/rec.adj" >/dev/null
"$CLI" sort "$work/rec.adj" "$work/rec.sadj" >/dev/null
"$CLI" shard "$work/rec.sadj" "$work/rec.sadjs" --shards 1 >/dev/null
"$CLI" update "$work/rec.sadjs" --stream "$work/crash_updates.txt" --batch 3 \
    --compact --resort >/dev/null 2>&1 || fail "epoch 1 and 2 commits failed"
"$CLI" update "$work/rec.sadjs" --stream "$work/four.txt" --batch 2 \
    >/dev/null 2>&1 || fail "the pending batch failed"
serving_epoch() {  # <store>
  "$CLI" fsck "$1" | sed -n 's/.*: serving epoch \([0-9]*\).*/\1/p'
}
[ "$(serving_epoch "$work/rec.sadjs")" = 2 ] || fail "store not at epoch 2"
faulted=0
for n in $(seq 1 200); do
  run="$work/rec_run"
  rm -rf "$run"
  mkdir "$run"
  cp "$work"/rec.sadjs* "$run/"
  rc=0
  SEMIS_FAULT_SPEC="read:$n:EIO@rec.sadjs.epoch2" "$CLI" update \
      "$run/rec.sadjs" --stream "$work/empty.txt" \
      >/dev/null 2>"$work/rec_$n.err" || rc=$?
  if ! grep -q "SEMIS_FAULT_INJECTED" "$work/rec_$n.err"; then
    [ "$rc" -eq 0 ] || fail "recovery exited $rc with read $n never faulted"
    break
  fi
  faulted="$n"
  [ "$rc" -eq 1 ] || fail "recovery with read $n faulted exited $rc, want 1"
  grep -q "IOError" "$work/rec_$n.err" \
      || fail "read $n faulted without an IOError: $(cat "$work/rec_$n.err")"
  [ "$(serving_epoch "$run/rec.sadjs")" = 2 ] \
      || fail "a fault at read $n moved the store off epoch 2"
  "$CLI" update "$run/rec.sadjs" --stream "$work/empty.txt" \
      > "$work/rec_$n.log" 2>&1 || fail "fault-free rerun after read $n failed"
  grep -q "; 4 delta entries pending" "$work/rec_$n.log" \
      || fail "the pending updates were lost after a fault at read $n"
done
[ "$faulted" -gt 1 ] || fail "the recovery sweep faulted no epoch 2 read"
rm -rf "$run"
mkdir "$run"
cp "$work"/rec.sadjs* "$run/"
rc=0
SEMIS_FAULT_SPEC="read:1:EIO@rec.sadjs.epoch2" "$CLI" fsck "$run/rec.sadjs" \
    --gc > "$work/rec_fsck.log" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || fail "fsck --gc under a read fault exited $rc, want 1"
grep -q "fell back\|gc: removed" "$work/rec_fsck.log" \
    && fail "fsck --gc retired epoch 2 on a read fault"
# The store-root probe: a stat fault is an IOError, not "not a store".
for cmd in solve update; do
  rc=0
  SEMIS_FAULT_SPEC="stat:1:EIO" "$CLI" $cmd "$run/rec.sadjs" \
      $([ $cmd = update ] && echo --stream "$work/empty.txt") \
      >/dev/null 2>"$work/probe.err" || rc=$?
  [ "$rc" -eq 1 ] || fail "$cmd under a stat fault exited $rc, want 1"
  grep -q "error: IOError" "$work/probe.err" \
      || fail "$cmd reported a stat fault as: $(cat "$work/probe.err")"
done

# An empty stream applies no batch, yet the evictions a previous session
# logged are replayed: the set must come out maximal.
"$CLI" generate --vertices 2000 --avg-degree 4 --seed 2 \
    --out "$work/es.adj" >/dev/null
"$CLI" sort "$work/es.adj" "$work/es.sadj" >/dev/null
"$CLI" shard "$work/es.sadj" "$work/es.sadjs" --shards 1 >/dev/null
"$CLI" update "$work/es.sadjs" --stream "$work/crash_updates.txt" --batch 3 \
    >/dev/null 2>&1 || fail "update before the empty stream failed"
"$CLI" update "$work/es.sadjs" --stream "$work/empty.txt" --compact --verify \
    >/dev/null 2>"$work/es.err" \
    || fail "empty-stream update --verify failed: $(cat "$work/es.err")"
# On a clean store an empty stream has nothing to repair: the set was just
# solved on the base graph, which is the effective graph. The session
# reads the store once, for that solve, and publishes no new epoch.
"$CLI" shard "$work/es.sadj" "$work/clean.sadjs" --shards 1 >/dev/null
"$CLI" update "$work/clean.sadjs" --stream "$work/empty.txt" --stats \
    > "$work/clean.log" 2>&1 || fail "empty-stream update on a clean store"
grep -q "peak memory [^,]*, 1 scans," "$work/clean.log" \
    || fail "empty stream on a clean store scanned again: $(cat "$work/clean.log")"
grep -q "0 repair passes (0 full)" "$work/clean.log" \
    || fail "empty stream on a clean store repaired: $(cat "$work/clean.log")"
grep -q "^  epoch 1:" "$work/clean.log" \
    || fail "empty stream on a clean store published a new epoch"

# --- memory figures that repeat ----------------------------------------------
# The greedy and the full repair scan on the calling thread at every
# thread count, so what they charge depends on the store alone: three
# runs of each command print the same lines once the wall-clock fields
# (seconds and rates) are masked, and the greedy's peak memory is the
# same at 1 and 8 threads.
mask_clock() {  # <log>
  sed -e 's/[0-9][0-9.]*s\b/<t>s/g' -e 's/[0-9]* records\/s/<r> records\/s/' \
      "$1"
}
for i in 1 2 3; do
  "$CLI" solve "$work/g.sadj" --threads 8 --shards 3 --stats \
      > "$work/repeat_solve.log" || fail "solve run $i exited non-zero"
  mask_clock "$work/repeat_solve.log" > "$work/repeat_solve$i.norm"
  rm -rf "$work"/repeat.sadj*
  cp "$work/g.sadj" "$work/repeat.sadj"
  "$CLI" update "$work/repeat.sadj" --stream "$work/updates.txt" \
      --threads 2 --shards 7 --batch 3 --compact --stats \
      > "$work/repeat_update.log" 2>/dev/null \
      || fail "update run $i exited non-zero"
  mask_clock "$work/repeat_update.log" > "$work/repeat_update$i.norm"
done
peak_memory() {  # <threads>
  "$CLI" solve "$work/g.sadj" --algo greedy --shards 3 --threads "$1" \
      --stats | sed -n 's/.*, peak memory \([^,]*\),.*/\1/p'
}
greedy_peak="$(peak_memory 1)"
[ -n "$greedy_peak" ] || fail "greedy solve --stats printed no peak memory"
[ "$(peak_memory 8)" = "$greedy_peak" ] \
    || fail "greedy peak memory differs between 1 and 8 threads"
for i in 2 3; do
  cmp -s "$work/repeat_solve1.norm" "$work/repeat_solve$i.norm" \
      || fail "solve --stats output differs between runs 1 and $i"
  cmp -s "$work/repeat_update1.norm" "$work/repeat_update$i.norm" \
      || fail "update --stats output differs between runs 1 and $i"
done

echo "PASS"
