// Package sim provides a deterministic discrete-event simulation engine.
//
// Virtual time is measured in CPU cycles (Time). Events fire in
// (time, sequence) order: sequence numbers are issued one per arm, in arm
// order, so two events scheduled for the same instant run in the order
// they were scheduled, which keeps every simulation bit-for-bit
// reproducible for a given seed.
//
// # The pending set: one timer wheel
//
// Every pending event lives in one structure, reached by one arm path
// (Engine.arm) and one fire path (Engine.dispatch).
//
// Geometry (wheel.go): three levels of 2048 slots. A level-0 slot spans
// 512 cycles; each coarser level multiplies the slot span by 2048, so
// level 0 covers a ~1M-cycle window (~2.6ms at the default clock), level 1
// ~2.1G cycles (~5.4s), and level 2 ~4.4T cycles — the wheel's horizon,
// measured from its cursor. A slot is a doubly linked list through the
// events themselves; level-0 lists stay sorted by (At, seq). An arm whose
// deadline lies in the level-0 ring, at or past its slot's tail, indexes
// the slot and appends: 95.5% of arms in the benchmark's 32-CPU hog cells,
// 97.5% in its 4-CPU chat cells, 68% in its 32-CPU chat cells, where
// another 31% land mid-slot and walk back from the tail. A further
// deadline (4% of the hog cells' arms, under 1% of the chat cells')
// parks in a coarser level and cascades down one level at a time as the
// cursor crosses its window. The next event is the head of the first
// occupied level-0 slot at or after the cursor, found by walking occupancy
// bitmaps (64 slots per word) and then remembered: firing the confirmed
// earliest promotes its slot successor, or the next occupied slot of the
// same bitmap word, so a burst never rescans.
//
// Cancel is an O(1) unlink whatever the slot holds. The event records its
// level when linked, so Cancel finds its slot from (level, At), splices it
// out and repairs the tail, the bitmap, the counts and the remembered
// earliest. Nothing dead stays queued: Pending is one counter, a cancelled
// caller-owned event can be armed again on the spot (the kernel re-arms one
// segment-completion event per CPU this way, interrupt after interrupt),
// and a cancelled engine-owned event goes straight back to the freelist.
//
// The overflow. Two kinds of deadline cannot be linked into the rings when
// they are armed: one at or past the horizon, and one behind the cursor —
// the cursor never passes a dispatch limit, but a Step that stops at the
// MaxDur horizon leaves it where the scan stopped, possibly ahead of the
// clock. Both go to a plain unsorted list with a cached minimum. The
// dispatch scan re-files the list onto the rings as soon as its minimum is
// in range of the cursor; what remains is either behind the cursor, so
// before every ring resident, or a horizon ahead, so after, and its
// minimum caps how far the scan may move the cursor. An event fires
// straight from the list only when it is behind the cursor or the rings
// are empty. FiredHeap (the name is historical) counts those.
//
// # Why it is this and nothing more
//
// The engine used to keep a 4-ary min-heap beside the wheel for the far
// tail, with a per-event hint routing between them and lazily cancelled
// events pruned as they surfaced. The heap never held an event: over the
// 324 registry cells (AllSpecs × Policies × workload.Names()) 0 of
// 496,682,720 events at DefaultScale and 0 of 1,965,051 at QuickScale
// fired from it, and with a panic planted in the overflow arm that
// replaced it, go test ./..., both registry sweeps, the benchmark
// module's test and 33,809 FuzzScenario executions never reached it. No
// committed cell or pinned seed arms past the horizon or behind the
// cursor. Do not add a second structure without a cell that needs one.
//
// The rest was measured on the prototype of this design (benchmark
// workload hogs_segments, run_s). A heap-only engine: 2.65 → 5.5 s.
// Rings of 512 or 1024 slots per level: +0.7% and +1.8% (0/5 and 1/5
// wins) — the cost of a dispatch is instructions and mispredicts, not
// footprint, so the geometry stayed. Doubly linked slots: a store more
// per arm and fire than singly linked ones, +2.6% and inside the noise —
// the price of the flat Cancel: beside 256 or 4096 events in one slot it
// costs the same ~23 ns, where lazy cancel left corpses that every later
// insert into the slot walked past (BenchmarkCancel read 920 ns). And on
// the final code, firing through the shared unlink routine instead of
// dispatch's own head pop: BenchmarkAfterStep 21.0 → 22.7 ns,
// BenchmarkWheelMixed 13.3 → 16.2 ns — which is why dispatch and arm
// each spell out their common case.
//
// The cursor stands on a level-0 slot boundary. Levels are chosen by
// distance from it, and a deadline just under one ring span ahead of a
// mid-slot position would index the cursor's own slot and fire a lap
// early. The previous wheel, whose cursor could rest mid-slot, did; the
// reference-model fuzzer reproduces that in under a second, and
// TestNextLapDeadlineKeepsOutOfTheCursorSlot pins it.
//
// FuzzEngineModel drives the engine and a sorted-slice model through one
// stream of After, Schedule, Cancel, cancel-and-re-Schedule, Step, capped
// RunFor, MaxDur and Reset operations with deadlines in every level and
// past the horizon, comparing Now, Pending and the fire log after each.
//
// # Ownership and allocation discipline
//
// Events returned by At and After belong to the engine: when one has
// fired or been cancelled it is recycled through a freelist, so a
// steady-state schedule→dispatch cycle allocates nothing, and the caller
// must drop its pointer at that moment. Any other Event — from NewEvent or
// NewPeriodicEvent (the same constructor now), or a caller's own Event
// value with Name and Fn set — belongs to the caller, is never recycled,
// and is armed with Schedule whenever it is not pending: the shape for
// recurring and repeatedly interrupted timers that must not touch the
// allocator. An event that is not queued holds no links, so neither the
// freelist nor an idle caller-owned event keeps a finished simulation
// reachable, and Reset touches only what is still pending.
package sim
