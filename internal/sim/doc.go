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
// Geometry (wheel.go): three levels over one ring of 2304 slots and one
// occupancy bitmap, indexed through per-level base, shift and mask tables.
// Level 0 has 2048 slots of 512 cycles, a ~1M-cycle window (~2.6ms at the
// default clock). Levels 1 and 2 have 128 slots each, and each of their
// slots spans the whole ring below it: level 1 covers ~134M cycles
// (~0.34s), level 2 ~17.2G cycles (~43s) — the wheel's horizon, measured
// from its cursor. A slot is a doubly linked list through the events
// themselves, headed by one pointer as the kernel's hlist_head is: the
// head's back link names the tail, so an append still reaches it in O(1).
// Level-0 lists stay sorted by (At, seq). An arm whose deadline lies in the
// level-0 ring, at or past its slot's tail, indexes the slot and appends: 95.5% of arms in the benchmark's 32-CPU hog cells, 97.5% in
// its 4-CPU chat cells, 68% in its 32-CPU chat cells, where another 31%
// land mid-slot and walk back from the tail. A further deadline (4% of the
// hog cells' arms, under 1% of the chat cells') parks in a coarser level
// and cascades down one level at a time as the cursor crosses its window.
// The next event is the head of the first occupied level-0 slot at or after
// the cursor, found by walking the occupancy bitmap (64 slots per word) and
// then remembered: firing the confirmed earliest promotes its slot
// successor, or the next occupied slot of the same bitmap word, so a burst
// never rescans.
//
// Cancel is an O(1) unlink whatever the slot holds. The event records its
// level when linked, so Cancel finds its slot from (level, At), splices it
// out and repairs the head's link to the tail, the bitmap, the counts and
// the remembered earliest. Nothing dead stays queued: Pending is one counter, a cancelled
// caller-owned event can be armed again on the spot (the kernel re-arms one
// segment-completion event per CPU this way, interrupt after interrupt),
// and a cancelled engine-owned event goes straight back to the freelist.
//
// Far deadlines and the horizon stop. A deadline a horizon or more past
// the cursor parks in the level-2 slot for its own time. Each lap the
// cursor opens that slot, and the cascade re-files the event through the
// same insert as every other: into the same slot for one more lap while it
// is still a horizon away, a finer level once it is not. So a deadline k
// laps out costs k cascades, and it fires from level 0 at its own
// (At, seq) like any other. The cursor never leads the clock: dispatch
// never moves it past its limit, and a Step refused at the MaxDur horizon
// moves the clock to the horizon. Every arm therefore lands at or past the
// cursor, and insert panics on one behind it.
//
// # Why it is this and nothing more
//
// The far tail used to have a structure of its own beside the wheel — a
// 4-ary min-heap, then an unsorted overflow list with a cached minimum —
// and neither ever held an event: 0 of 496,682,720 at DefaultScale and 0
// of 1,965,051 at QuickScale over the 324 registry cells (AllSpecs ×
// Policies × workload.Names()), and a panic planted in the overflow arm
// was never reached by go test ./..., both registry sweeps, the benchmark
// module's test or 33,809 FuzzScenario executions. So the top level holds
// the far tail, and a second structure waits for a cell that needs one.
//
// The coarse levels are sized to their traffic. Counting every arm of one
// bash benchmark/run.sh -reps 1 per workload, the share whose deadline
// lies a level-0 ring (2^20 cycles) or more past the clock is 6.5% in
// hogs_segments (its kernel ticks), 0.58% in volano_numa, 0.67% in
// volano_paper and 9.8% in matrix_quick, and no deadline lies 2^27 cycles
// out: the farthest is 76,219,093, in matrix_quick. With 2048 slots at
// every level those workloads never used level 2 and used at most 73
// level-1 slots, yet the rings made the wheel a 106,496-byte allocation,
// live in every recycled engine, zeroed at every fresh machine's first
// arm, and 54% of hogs_segments' live heap. At 128 slots per coarse level
// it was 37,224 bytes, just past the 32 KB large-object line and so a
// 40,960-byte allocation, a third of hogs_segments' live heap. With
// one-pointer slots it is 18,784 bytes in the 19,072-byte size class
// (TestWheelHeapBudget).
// The horizon still covers the registry: its farthest deadline is
// 76,219,093 cycles at QuickScale and 14,144,852,219 at DefaultScale,
// under 2^34 = 17,179,869,184, and DefaultScale arms 100,139 of its
// 503,647,873 deadlines past 2^27, into level 2; none needs a second lap.
//
// The rest was measured on the prototype of this design (benchmark workload
// hogs_segments, run_s). A heap-only engine: 2.65 → 5.5 s. Rings of 512 or
// 1024 slots at every level, level 0 included: +0.7% and +1.8% (0/5 and 1/5
// wins) — the cost of a dispatch is instructions and mispredicts, not
// footprint, so level 0 kept 2048. Doubly linked slots: a store more per
// arm and fire than singly linked ones, +2.6% and inside the noise — the
// price of the flat Cancel: beside 256 or 4096 events in one slot it costs
// the same ~23 ns, where lazy cancel left corpses that every later insert
// into the slot walked past (BenchmarkCancel read 920 ns). And on the final
// code, firing through the shared unlink routine instead of dispatch's own
// head pop: BenchmarkAfterStep 21.0 → 22.7 ns, BenchmarkWheelMixed 13.3 →
// 16.2 ns — which is why dispatch and arm each spell out their common case.
//
// The cursor stands on a level-0 slot boundary. Levels are chosen by
// distance from it, and a deadline just under one ring span ahead of a
// mid-slot position would index the cursor's own slot and fire a lap
// early. The previous wheel, whose cursor could rest mid-slot, did; the
// reference-model fuzzer reproduces that in under a second, and
// TestNextLapDeadlineKeepsOutOfTheCursorSlot pins it.
//
// FuzzEngineModel drives the engine and a sorted-slice model through one
// stream of After, Schedule, Cancel, cancel-and-re-Schedule, Step, runs
// capped by MaxDur, and Reset operations with deadlines in every level and
// up to 2^17 laps past the horizon, comparing Now, Pending and the fire log
// after each; its model stops a capped run with the same horizon rule.
//
// # Ownership and allocation discipline
//
// Events returned by At and After belong to the engine: when one has fired
// or been cancelled it is recycled through a freelist, so a steady-state
// schedule→dispatch cycle allocates nothing, and the caller must drop its
// pointer at that moment. Any other Event — from NewEvent, or a caller's
// own Event value with Name and Fn set — belongs to the caller, is never
// recycled, and is armed with Schedule whenever it is not pending: the
// shape for recurring and repeatedly interrupted timers that must not touch
// the allocator. An event that is not queued holds no links, so neither the
// freelist nor an idle caller-owned event keeps a finished simulation
// reachable, and Reset touches only what is still pending.
package sim
