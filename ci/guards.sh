#!/usr/bin/env bash
# Structure guards for CI's lint job; run locally with `bash ci/guards.sh`.
# All count *product* lines only: what a source file holds above its
# `#[cfg(test)]` module, comment lines dropped. The module's attribute sits
# at column 0; an indented `#[cfg(test)]` marks one item inside the product
# code (a test-only constructor, say) and does not end it.
set -euo pipefail
cd "$(dirname "$0")/.."

product_lines() {
  awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$1"
}

fail=0

# 1. One step. The atomic step of the simulator is stated once, in
#    crates/sim/src/step.rs, and every shard of the one engine drives it.
#    These two strings mark a step body (the node's context is built; an
#    effect is placed on the clock), so a second file holding either is a
#    re-grown copy of the step: fail here rather than wait for a
#    differential test. (grep reads all of its input: with `-q` it would
#    exit at the first hit, and under pipefail the writer's SIGPIPE would
#    turn a hit into a miss whenever awk had more to write.)
for needle in 'Context::new(' 'scheduled past the clock horizon'; do
  hits=$(for f in crates/sim/src/*.rs; do
    if product_lines "$f" | grep -F -- "$needle" >/dev/null; then echo "$f"; fi
  done)
  if [ "$hits" != "crates/sim/src/step.rs" ]; then
    echo "structure guard: \`$needle\` must occur in crates/sim/src/step.rs only, found in:"
    echo "${hits:-  (nowhere)}" | sed 's/^/  /'
    fail=1
  fi
done

# 2. One edge. The fuzzer walks the pair model one label at a time
#    (`for_each_label`, then `apply_into` on the chosen one). A call that
#    builds every successor state to keep one is the enumerate-then-index
#    walk re-grown, and costs 4-6 state clones per step: fail here rather
#    than wait for a benchmark run. The search loop walks labels too: it
#    builds each successor in one scratch state and keeps only the encoding
#    of the ones the visited store interns, so `successors_into(` there is
#    every successor cloned, the two thirds it prunes included.
for f in crates/fuzz/src/*.rs; do
  if product_lines "$f" | grep -nE 'successors(_into)?\('; then
    echo "structure guard: $f enumerates successors; walk labels and apply one (see schedule.rs)"
    fail=1
  fi
done
if product_lines crates/explore/src/engine.rs | grep -nF 'successors_into('; then
  echo "structure guard: crates/explore/src/engine.rs enumerates successors; build each in the scratch state (see expand_entry)"
  fail=1
fi

# 3. Panic-site ratchet (ROADMAP 3(d)): lines of library and binary code
#    that can abort the process. Turn one into a `Result` or a proved
#    invariant and lower the ceiling to the new count; it never goes up.
CEILING=26
total=0
report=""
for crate in crates/*/; do
  n=0
  while IFS= read -r f; do
    c=$(product_lines "$f" | grep -cE 'unwrap\(\)|\.expect\(|panic!\(' || true)
    n=$((n + c))
  done < <(find "${crate}src" -name '*.rs' | sort)
  total=$((total + n))
  report="$report $(basename "$crate")=$n"
done
echo "panic sites: $total (ceiling $CEILING):$report"
if [ "$total" -gt "$CEILING" ]; then
  echo "panic-site ratchet: $total unwrap()/.expect(/panic!( lines exceed the ceiling of $CEILING"
  fail=1
elif [ "$total" -lt "$CEILING" ]; then
  echo "panic-site ratchet: count fell to $total; lower CEILING in ci/guards.sh to match"
  fail=1
fi

# 4. One pick, no `Vec`. The banks choose the action a pump fires through
#    the machines' `for_each_enabled`; `enabled()` builds a `Vec` per call
#    and stays for tests and `fire`'s debug-assert. A call from the host's
#    product lines puts an allocation back into every pump iteration of
#    every step (sized at 5-8 % of both extract workloads).
if product_lines crates/core/src/host.rs | grep -nF '.enabled('; then
  echo "structure guard: crates/core/src/host.rs calls .enabled(; pick through for_each_enabled"
  fail=1
fi

# 5. One search loop. The explorer had a serial and a work-stealing engine
#    over stand-ins for `crossbeam` and `parking_lot`; it is one loop on one
#    thread now (crates/explore/src/engine.rs, and guard 10). A manifest
#    naming either crate, a fifth directory under vendor/, or a second call
#    of `expand_entry(` is that pair growing back.
hits=$(find . -name Cargo.toml -not -path '*/target/*' -not -path './.bench_build/*' \
  -exec grep -lE 'crossbeam|parking_lot' {} + || true)
if [ -n "$hits" ]; then
  echo "structure guard: manifests name crossbeam/parking_lot (use std::sync and sim::pool):"
  echo "$hits" | sed 's/^/  /'
  fail=1
fi
vendored=$(ls vendor | tr '\n' ' ')
if [ "$vendored" != "proptest serde serde_derive serde_json " ]; then
  echo "structure guard: vendor/ must hold exactly proptest serde serde_derive serde_json, has: $vendored"
  fail=1
fi
calls=$(for f in crates/explore/src/*.rs; do
  product_lines "$f" | grep -F 'expand_entry(' || true
done | wc -l)
if [ "$calls" -ne 1 ]; then
  echo "structure guard: expand_entry( is called from $calls product lines under crates/explore/src; one search loop calls it once"
  fail=1
fi

# 6. One host. "Call a `DiningParticipant` with a `DiningIo`, tag and
#    forward what it sent, report the phases it crossed" was written once
#    per extractor and had drifted; it is `Bank::invoke_dx` in host.rs now,
#    the one place crates/core builds a `DiningIo`. A diner with a think/eat
#    client is hosted once too, by `DiningDriverNode::invoke` in
#    crates/dining/src/driver.rs over whichever detector layer feeds it, and
#    the root crate builds none. Another constructor call is a private host
#    growing back; so is a phase walk or a routing scan that ends in
#    `.expect(` where `DinerPhase::next()` and the slot tables are total.
hits=$(for f in crates/core/src/*.rs crates/dining/src/driver.rs src/*.rs; do
  c=$(product_lines "$f" | grep -cF 'DiningIo::' || true)
  if [ "$c" -gt 0 ]; then echo "$f:$c"; fi
done | tr '\n' ' ')
if [ "$hits" != "crates/core/src/host.rs:1 crates/dining/src/driver.rs:1 " ]; then
  echo "structure guard: a DiningIo must be built once in crates/core/src/host.rs and once in crates/dining/src/driver.rs (none in src/), found: ${hits:-nowhere}"
  fail=1
fi
for f in crates/core/src/*.rs crates/dining/src/*.rs; do
  if product_lines "$f" | grep -nE 'expect\("(phase|unknown pair)'; then
    echo "structure guard: $f walks phases or scans pairs behind .expect(; use DinerPhase::next() and the host's slot tables"
    fail=1
  fi
done

# 7. One message per protocol. The six black boxes run on four protocols
#    (hygienic forks, ◇P forks, a coordinator grant queue, the fair diner's
#    hunger announcements); a service is one protocol's engine under a
#    policy, and `DiningMsg` has one variant per protocol. A sixth
#    `pub enum …Msg` (the four plus `DiningMsg`), a fifth
#    `impl DiningParticipant for`, or a translator between message copies is
#    a per-service copy growing back.
count_in_dining() {
  for f in crates/dining/src/*.rs; do product_lines "$f" | grep -cE "$1" || true; done |
    awk '{ s += $1 } END { print s + 0 }'
}
msgs=$(count_in_dining '^[[:space:]]*pub enum [A-Za-z]*Msg\b')
impls=$(count_in_dining 'impl DiningParticipant for ')
if [ "$msgs" -ne 5 ] || [ "$impls" -ne 4 ]; then
  echo "structure guard: crates/dining/src declares $msgs pub enum …Msg (want 5) and $impls impl DiningParticipant (want 4); one engine and one message enum per protocol"
  fail=1
fi
for f in crates/dining/src/*.rs; do
  if product_lines "$f" | grep -nE 'fn (wrap|to_core)\('; then
    echo "structure guard: $f translates between message copies; send the protocol's DiningMsg variant"
    fail=1
  fi
done

# 8. One producer, callers own the clock. Every figure in the golden
#    BENCH_experiments.json comes from the experiment run that printed it,
#    so outside crates/bench/src/experiments/ the bench crate runs no
#    extraction and no search (a second harness re-running E7/E8's
#    scenarios once lived in perfdump.rs). And the libraries read no wall
#    clock: a caller that wants a duration times its own call, and
#    crates/runtime/src/clock.rs is the one clock the engines may hold.
while IFS= read -r f; do
  if product_lines "$f" | grep -nE '\b(run_extraction(_over)?|explore|explore_composed)\('; then
    echo "structure guard: $f runs a scenario; only crates/bench/src/experiments/ produces figures"
    fail=1
  fi
done < <(find crates/bench/src -name '*.rs' -not -path 'crates/bench/src/experiments/*' | sort)
for f in crates/{sim,core,explore,dining,fd,fuzz,analyze}/src/*.rs; do
  if product_lines "$f" | grep -nw 'Instant'; then
    echo "structure guard: $f names Instant; time the call in the caller, or hold a runtime Clock"
    fail=1
  fi
done

# 9. One simulator family. The classic `World` (one global queue, one
#    delay stream) and its binary-heap queue are gone: `World` is the
#    sharded engine at one shard, so crates/sim/src holds one `Fabric`
#    impl, and `BinaryHeap` only as the wheel tests' oracle. A second impl
#    or a product-line heap is the second family growing back.
fabrics=$(for f in crates/sim/src/*.rs; do
  product_lines "$f" | grep -E 'impl.*Fabric<N> for' || true
done | wc -l)
if [ "$fabrics" -ne 1 ]; then
  echo "structure guard: crates/sim/src holds $fabrics \`impl … Fabric<N> for\` (want 1); one simulator family"
  fail=1
fi
for f in crates/sim/src/*.rs; do
  if product_lines "$f" | grep -nF 'BinaryHeap'; then
    echo "structure guard: $f holds a BinaryHeap; the timer wheel is the one event queue"
    fail=1
  fi
done

# 10. One thread in the explorer. The search ran on a work-stealing pool
#     over a lock-striped visited store, and at every size the repo runs it
#     was no faster than the serial loop; both are gone, so a verdict cannot
#     depend on a thread schedule. A lock, an atomic, a pool call or a name
#     of the striped store in the explorer's product lines is that engine
#     growing back.
for f in crates/explore/src/*.rs; do
  if product_lines "$f" | grep -nE 'Mutex|Condvar|Atomic|pool::|StoreAccess|ShardedVisitedStore|N_SHARDS'; then
    echo "structure guard: $f holds a lock, an atomic, a pool call or the striped store; the explorer runs on one thread"
    fail=1
  fi
done

# 11. One merge. A one-shard world executes an instant's gathered events in
#     key order and writes the trace and the global sink as it goes. A
#     multi-shard world, stepped by hand or by the parallel coordinator, logs
#     each shard's emissions and merges the logs in one function,
#     `Record::replay`, by a stable sort. So shard.rs sorts twice: a shard's
#     gathered events (keys are unique, so unstably) and that one log
#     (stably, as one event's emissions share a key). Another sort is a
#     second merge growing back.
sorts=$(product_lines crates/sim/src/shard.rs | grep -cE '\.sort(_unstable)?(_by(_key|_cached_key)?)?\(' || true)
stable=$(product_lines crates/sim/src/shard.rs | grep -cE '\.sort(_by(_key|_cached_key)?)?\(' || true)
if [ "$sorts" -ne 2 ] || [ "$stable" -ne 1 ]; then
  echo "structure guard: crates/sim/src/shard.rs sorts $sorts times, $stable stably (want 2 and 1); only Record::replay sorts an emission log"
  fail=1
fi

# 12. One loop per process. The live runtime fed each process from n-1 link
#     reader threads through an `mpsc` inbox, a wake-up and a futex hop per
#     frame; each process is one event loop over its own non-blocking
#     sockets now (crates/live/src/cluster.rs). A channel or a `BufReader` in
#     crates/live/src is that hop growing back, and a `thread::sleep` beyond
#     the loop's idle wait and the accept poll is a loop stalling on one
#     link, such as a per-frame delay slept instead of queued.
for f in crates/live/src/*.rs; do
  if product_lines "$f" | grep -nE 'mpsc|BufReader'; then
    echo "structure guard: $f holds a channel or a BufReader; a process reads its own sockets"
    fail=1
  fi
done
sleeps=$(for f in crates/live/src/*.rs; do
  product_lines "$f" | grep -cF 'thread::sleep' || true
done | awk '{ s += $1 } END { print s + 0 }')
if [ "$sleeps" -gt 2 ]; then
  echo "structure guard: crates/live/src calls thread::sleep $sleeps times (at most 2: the idle wait and the accept poll)"
  fail=1
fi

# 13. One diner host. The think/eat node was written three times, once per
#     detector beneath the diner (an injected oracle, the reduction's
#     extracted ◇P, a heartbeat ◇P); it is `DiningDriverNode` over a
#     `DetectorLayer` now, whose constructor is the one place a `Client` is
#     built. A second `Client::new(` is a second host, and a file in src/
#     beside lib.rs is the root crate holding code of its own again instead
#     of being the facade.
clients=$(find crates/*/src src -name '*.rs' | sort | while IFS= read -r f; do
  product_lines "$f" | grep -F 'Client::new(' || true
done | wc -l)
if [ "$clients" -ne 1 ]; then
  echo "structure guard: Client::new( occurs in $clients product lines under crates/*/src and src/ (want 1); one diner host"
  fail=1
fi
extra=$(find src -type f ! -path src/lib.rs | sort | tr '\n' ' ')
if [ -n "$extra" ]; then
  echo "structure guard: src/ must hold only lib.rs (the root crate is a facade), also holds: $extra"
  fail=1
fi

# 14. One scenario document. The DSL lived in crates/sim, whose engine never
#     reads it, and spelled each seeded mutant a third time (`…MutationSpec`
#     mirrors) behind translators back to the real enums
#     (`ExploreConfig::from_scenario`, `FuzzConfig::from_scenario`). It is
#     crates/fuzz/src/scenario_dsl.rs now: `[model]` and `[fuzz]` parse
#     straight into `FuzzConfig`, the mutants' spellings are tables on their
#     own enums, and the extraction builder sits beside the parser. A DSL
#     file back in sim, a mirror or translator, the DSL or its builder named
#     in sim/core/explore, or a second parser is that copy growing back.
if [ -e crates/sim/src/scenario_dsl.rs ]; then
  echo "structure guard: crates/sim/src/scenario_dsl.rs exists; the scenario DSL lives in crates/fuzz/src"
  fail=1
fi
for f in $(find crates/*/src -name '*.rs' | sort); do
  if product_lines "$f" | grep -nE 'MutationSpec|from_scenario'; then
    echo "structure guard: $f mirrors a mutation enum or translates a scenario; parse into the engines' own types"
    fail=1
  fi
done
for f in $(find crates/sim/src crates/core/src crates/explore/src -name '*.rs' | sort); do
  if product_lines "$f" | grep -nE 'scenario_dsl|from_dsl'; then
    echo "structure guard: $f names the scenario DSL; it and its extraction builder belong to crates/fuzz"
    fail=1
  fi
done
for f in $(find crates/*/src src -name '*.rs' -not -path 'crates/fuzz/src/*' | sort); do
  if product_lines "$f" | grep -nF 'fn parse(text: &str) -> Result<Scenario'; then
    echo "structure guard: $f holds a scenario parser; the one parser is in crates/fuzz/src"
    fail=1
  fi
done

# 15. Apps is the CLI. crates/apps carried a library of consumers of the
#     extracted oracle (stable leader election, Chandra–Toueg consensus, a
#     recorded-history replay oracle) that no experiment, subcommand or
#     theorem used, and `dinefd analyze` chose between two invariant engines.
#     The package is the `dinefd` binary now, and `analyze` runs symbolic
#     k-induction at every cap; the explicit enumerator is the library's
#     reference for the agreement tests. A second source file in
#     crates/apps/src, or the CLI calling the enumerator or offering
#     `--engine`, is that library or that choice growing back.
extra=$(find crates/apps/src -name '*.rs' ! -path crates/apps/src/bin/dinefd.rs | sort | tr '\n' ' ')
if [ -n "$extra" ]; then
  echo "structure guard: crates/apps/src must hold only bin/dinefd.rs (the package is the CLI), also holds: $extra"
  fail=1
fi
if product_lines crates/apps/src/bin/dinefd.rs | grep -nE 'run_induction\(|--engine'; then
  echo "structure guard: crates/apps/src/bin/dinefd.rs runs the explicit enumerator or offers --engine; analyze has one engine, k-induction"
  fail=1
fi

# 16. One slot record, inline diners. A bank held each pair's side, phases
#     and tick bookkeeping in parallel vectors, and its two diners in a
#     vector of boxed arrays, so one message touched six arrays and followed
#     a pointer to the heap. Each pair is one `Slot` record now, its diners
#     inline when the engine is known (`Bank<S, D, K>`). A per-slot vector
#     field or a vector of boxed diner arrays in host.rs is that layout
#     growing back.
if product_lines crates/core/src/host.rs |
  grep -nE '\b(sides|last_phase|pump_pending|trusted_until):[[:space:]]*Vec<|Vec<\[Box<dyn DiningParticipant>'; then
  echo "structure guard: crates/core/src/host.rs declares a per-slot Vec field or boxed diner arrays; keep one Slot record per pair"
  fail=1
fi

# 17. One search order. The explorer searched depth-first, re-queued a state
#     that came back with more depth to spend, could skip commuting
#     deliveries by sleep-set partial-order reduction (por.rs), and
#     `find_reachable` ran its own breadth-first loop over a map of full
#     states. One breadth-first loop whose queue is the visited store does
#     all of it now (crates/explore/src/engine.rs): each state is expanded
#     once, at its shortest distance. A sleep mask, a re-queue, a delivery
#     class, a second queue or a hash map of states in the explorer's product
#     lines, or a por.rs, is one of those growing back.
for f in crates/explore/src/*.rs; do
  if product_lines "$f" | grep -nE 'sleep|Requeue|DeliveryClass|VecDeque|HashMap'; then
    echo "structure guard: $f names a sleep set, a re-queue, a delivery class, a VecDeque or a HashMap; the engine's one breadth-first loop over the visited store is the search"
    fail=1
  fi
done
if [ -e crates/explore/src/por.rs ]; then
  echo "structure guard: crates/explore/src/por.rs exists; the search has no partial-order reduction"
  fail=1
fi

# 18. One delivery event, one sequential order. A batched step's messages
#     to one destination travelled as an `Envelope` event whose payload sat
#     in a pooled heap vector, and a one-thread world of k shards ran every
#     instant as a k-way merge (`next_due`). Each message is its own
#     delivery now, at its destination's one instant with consecutive effect
#     seqs, and a world that runs on one thread holds one shard. Any of the
#     three names in crates/sim/src's product lines is one of those growing
#     back.
for f in crates/sim/src/*.rs; do
  if product_lines "$f" | grep -nE 'Envelope \{|envelope_pool|next_due'; then
    echo "structure guard: $f names an Envelope event, the envelope pool or next_due; a batched message is a plain delivery and a sequential world runs one shard"
    fail=1
  fi
done

# 19. One protocol text. The witness and subject machines were a second
#     transcription of Alg. 1/2 beside the protocol's guards and updates,
#     kept in step only by a conformance suite; they read
#     crates/core/src/protocol.rs now, on a view of their own fields. In
#     machines.rs's product lines, a `DinerPhase::` path anywhere but the
#     idle view `[DinerPhase::Thinking; 2]`, or a phase array compared or
#     matched, is a guard comparing phases again, and an assignment to `switch`, `haveping`, `suspect`, `trigger`
#     or `ping_enabled` that does not copy the same field of an update's
#     result (`self.f = t.f;`) is an update written again. A second
#     `fn guard<A: Algebra>`, `fn update<A: Algebra>` or
#     `fn clause<A: Algebra>` anywhere under crates/*/src, test modules
#     included, is a second text (guard 20 says why `clause` is here).
if product_lines crates/core/src/machines.rs | sed 's/\[DinerPhase::Thinking; 2\]//g' |
  grep -nE 'DinerPhase::|\b(phases|w_phase|s_phase)\b[^;]*([!=]=|matches!)|matches!\([^)]*phase'; then
  echo "structure guard: crates/core/src/machines.rs compares a dining phase; the machines' guards are protocol::guard"
  fail=1
fi
fields='(switch|haveping|suspect|trigger|ping_enabled)'
if product_lines crates/core/src/machines.rs |
  grep -nE "\b${fields}(\[[^]]*\])?[[:space:]]*([-+*/|&^]|<<|>>)?=([^=]|$)" |
  grep -vE "[0-9]+:[[:space:]]*self\.${fields} = t\.\1;$"; then
  echo "structure guard: crates/core/src/machines.rs assigns a protocol field other than by copying a protocol::update result"
  fail=1
fi
for name in guard update clause; do
  defs=$(for f in $(find crates/*/src -name '*.rs' | sort); do
    grep -vE '^[[:space:]]*//' "$f" | grep -E "fn[[:space:]]+${name}[[:space:]]*<[^>]*Algebra" | sed "s|^|$f: |" || true
  done)
  if [ "$(printf '%s' "$defs" | grep -c . || true)" -ne 1 ]; then
    echo "structure guard: expected one fn ${name}<A: Algebra> under crates/*/src (crates/core/src/protocol.rs), found:"
    printf '%s\n' "$defs"
    fail=1
  fi
done

# 20. One lemma text. Lemmas 2, 3, 4 and 9, exclusion soundness and the
#     completeness closure were written four times: as protocol clauses
#     for the analyzer, as predicates over an `InvariantView` trait for the
#     explorer and the fuzzer, and inline twice more inside the two models'
#     `check_invariants`, each with its own messages. The clauses in
#     crates/core/src/protocol.rs are the one text now (guard 19 counts
#     `fn clause`); the models evaluate them on a view of their state, and
#     crates/explore/src/invariants.rs only maps a failing clause to its
#     message. The view trait or a `fn lemmaN_holds` in product lines is a
#     second text growing back, and so is a "Lemma N violated" literal in
#     more than one product file.
lemma_files=()
for f in $(find crates/*/src src -name '*.rs' | sort); do
  if product_lines "$f" | grep -nE 'InvariantView|fn[[:space:]]+lemma[0-9]+_holds'; then
    echo "structure guard: $f states a lemma predicate of its own; the lemmas are protocol::clause"
    fail=1
  fi
  if product_lines "$f" | grep -E '"Lemma [0-9]+ violated' >/dev/null; then lemma_files+=("$f"); fi
done
if [ "${#lemma_files[@]}" -gt 1 ]; then
  echo "structure guard: lemma messages are spelled in ${lemma_files[*]}; crates/explore/src/invariants.rs is the one message table"
  fail=1
fi

exit "$fail"
