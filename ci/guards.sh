#!/usr/bin/env bash
# Structure guards for CI's lint job; run locally with `bash ci/guards.sh`.
# All count *product* lines only: what a source file holds above its
# `#[cfg(test)]` module, comment lines dropped.
set -euo pipefail
cd "$(dirname "$0")/.."

product_lines() {
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print }' "$1"
}

fail=0

# 1. One step. The atomic step of the simulator is stated once, in
#    crates/sim/src/step.rs, and every shard of the one engine drives it.
#    These two strings mark a step body (the node's context is built; an
#    effect is placed on the clock), so a second file holding either is a
#    re-grown copy of the step: fail here rather than wait for a
#    differential test.
for needle in 'Context::new(' 'scheduled past the clock horizon'; do
  hits=$(for f in crates/sim/src/*.rs; do
    if product_lines "$f" | grep -qF -- "$needle"; then echo "$f"; fi
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
#    builds each successor in one scratch state and clones only the ones
#    the visited store keeps, so `successors_into(` there is every
#    successor cloned again, the two thirds it prunes included.
for f in crates/fuzz/src/*.rs; do
  if product_lines "$f" | grep -nE 'successors(_into)?\('; then
    echo "structure guard: $f enumerates successors; walk labels and apply one (see schedule.rs)"
    fail=1
  fi
done
if product_lines crates/explore/src/parallel.rs | grep -nF 'successors_into('; then
  echo "structure guard: crates/explore/src/parallel.rs enumerates successors; build each in the scratch state (see expand_task)"
  fail=1
fi

# 3. Panic-site ratchet (ROADMAP 3(d)): lines of library and binary code
#    that can abort the process. Turn one into a `Result` or a proved
#    invariant and lower the ceiling to the new count; it never goes up.
CEILING=45
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

# 5. One search loop, on `std`. The explorer had a serial and a
#    work-stealing engine over stand-ins for `crossbeam` and `parking_lot`;
#    it is one worker loop now (crates/explore/src/parallel.rs). A manifest
#    naming either crate, a fifth directory under vendor/, or a second call
#    of `expand_task(` is that pair growing back.
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
  product_lines "$f" | grep -F 'expand_task(' || true
done | wc -l)
if [ "$calls" -ne 1 ]; then
  echo "structure guard: expand_task( is called from $calls product lines under crates/explore/src; one worker loop calls it once"
  fail=1
fi

# 6. One host. "Call a `DiningParticipant` with a `DiningIo`, tag and
#    forward what it sent, report the phases it crossed" was written once
#    per extractor and had drifted; it is `Bank::invoke_dx` in host.rs now,
#    and the Section 8 node's own diner (fairness.rs) is the one other place
#    crates/core builds a `DiningIo`. A third constructor call is a private
#    host growing back; so is a phase walk or a routing scan that ends in
#    `.expect(` where `DinerPhase::next()` and the slot tables are total.
hits=$(for f in crates/core/src/*.rs; do
  c=$(product_lines "$f" | grep -cF 'DiningIo::' || true)
  if [ "$c" -gt 0 ]; then echo "$f:$c"; fi
done | tr '\n' ' ')
if [ "$hits" != "crates/core/src/fairness.rs:1 crates/core/src/host.rs:1 " ]; then
  echo "structure guard: crates/core/src must build a DiningIo once in host.rs and once in fairness.rs, found: ${hits:-nowhere}"
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
  if product_lines "$f" | grep -nE '\b(run_extraction|explore|explore_composed)\('; then
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

exit "$fail"
