package conformance

// Hot policy switching conformance: every ordered pair of registered
// policies is driven into a messy mid-run state (running tasks, blocked
// tasks, real-time tasks, pinned tasks, expired/zero-section residents)
// and then swapped, emulating kernel.Machine.SwitchPolicy's exact
// handoff sequence. The invariants are the ones the fuzzer checks on
// whole machines, isolated to the policy layer so a failure names the
// policy pair directly:
//
//   - the queued-task multiset is preserved across the swap — no task
//     lost, none duplicated;
//   - the predecessor is empty afterwards;
//   - no policy reads a scheduler-private tag it did not write: every
//     running, blocked and exported task crosses the swap with its
//     QIndex/QZero/QStamp poisoned (scribble), and blocked ones still
//     integrate when they wake under the successor;
//   - every surviving task is eventually scheduled by the successor.

import (
	"fmt"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/sched"
	"elsc/internal/task"
)

// swapSpec is one machine shape the pair matrix runs on.
type swapSpec struct {
	label   string
	ncpu    int
	domains int // 0 = flat
}

var swapSpecs = []swapSpec{
	{label: "8P", ncpu: 8},
	{label: "32P-NUMA", ncpu: 32, domains: 4},
}

// kernelSwap performs the policy-layer half of Machine.SwitchPolicy: it
// detaches the running tasks from old, drains it, imports into a fresh
// successor, and hands running tasks back to a successor with
// Ops.NoteRunning — with the tags of every task the successor has not
// filed yet poisoned on the way. It returns the exported set in drain order.
func kernelSwap(t *testing.T, h *harness, env *sched.Env, succ sched.Scheduler, blocked []*task.Task) []*task.Task {
	t.Helper()
	old := h.s
	var running []*task.Task
	for _, cur := range h.current {
		if cur != nil {
			running = append(running, cur)
		}
	}
	for _, tk := range running {
		old.DelFromRunqueue(tk)
	}
	want := old.Runnable()
	exported := drainAll(old, env.NCPU)
	if len(exported) != want {
		t.Fatalf("%s exported %d tasks, Runnable said %d", old.Name(), len(exported), want)
	}
	if old.Runnable() != 0 {
		t.Fatalf("%s still reports %d runnable after export", old.Name(), old.Runnable())
	}
	for _, set := range [][]*task.Task{exported, running, blocked} {
		for _, tk := range set {
			if tk.OnRunqueue() {
				t.Fatalf("%s still tracks %v after the drain", old.Name(), tk)
			}
			scribble(env, tk)
		}
	}
	for _, tk := range exported {
		succ.AddToRunqueue(tk)
	}
	ops := sched.OpsOf(succ)
	if ops.NoteRunning != nil {
		for _, tk := range running {
			succ.AddToRunqueue(tk)
		}
	}
	if got := succ.Runnable(); got != len(exported) {
		t.Fatalf("%s imported %d runnable, want %d", succ.Name(), got, len(exported))
	}
	for _, tk := range exported {
		if !tk.OnRunqueue() {
			t.Fatalf("%s dropped imported task %v", succ.Name(), tk)
		}
	}
	h.s, h.ops = succ, ops
	return exported
}

// churn drives the harness for rounds schedule() calls per CPU with a
// deterministic block/yield/wake pattern, returning the currently blocked
// tasks. Tasks end up spread across every internal structure a policy
// has: per-CPU queues, expired arrays, the zero section, heaps.
func churn(h *harness, ncpu, rounds int, blocked *[]*task.Task) {
	step := 0
	for r := 0; r < rounds; r++ {
		for cpu := 0; cpu < ncpu; cpu++ {
			step++
			next := h.schedule(cpu)
			if next == nil {
				continue
			}
			switch step % 5 {
			case 0:
				h.block(cpu)
				*blocked = append(*blocked, next)
			case 2:
				next.Yielded = true
			case 3:
				// Burn quantum so recalc/expiry paths trigger.
				next.DrainRun(1)
			}
			// Wake one blocked task every few steps.
			if step%7 == 0 && len(*blocked) > 0 {
				wake := (*blocked)[0]
				*blocked = (*blocked)[1:]
				wake.State = task.Running
				h.s.AddToRunqueue(wake)
			}
		}
	}
}

// TestBlockedUnderCFSWakesCleanAfterSwap is the stale-tag audit for the
// vruntime policy (the heapsched silent-drop class from the policy-switch
// work): a task that blocks under cfs keeps a heap-index QStamp and a
// home-CPU QIndex that mean nothing to any successor, plus a VRuntime
// denominated in its old queue's virtual clock. Nothing normalizes the
// tags — kernelSwap poisons them instead — so the wake under every
// successor — including cfs itself, whose placement clamp bounds the
// stale virtual clock — must file and eventually schedule the task
// without reading them.
func TestBlockedUnderCFSWakesCleanAfterSwap(t *testing.T) {
	for _, to := range experiments.Policies {
		to := to
		t.Run("cfs-to-"+to, func(t *testing.T) {
			t.Parallel()
			const ncpu = 8
			n := 3 * ncpu
			env := sched.NewEnv(ncpu, true, func() int { return n })
			s := experiments.Factory("cfs")(env)

			tasks := make([]*task.Task, 0, n)
			for i := 0; i < n; i++ {
				tk := mkTask(env, i+1, 1+(i*3)%40, 2+i%12)
				tasks = append(tasks, tk)
				s.AddToRunqueue(tk)
			}

			// Churn so queued tasks acquire nonzero heap positions and
			// advanced vruntimes, then block whatever is running.
			h := newHarness(s, ncpu)
			var blocked []*task.Task
			churn(h, ncpu, 6, &blocked)
			for cpu := 0; cpu < ncpu; cpu++ {
				if h.current[cpu] != nil {
					tk := h.current[cpu]
					h.block(cpu)
					h.schedule(cpu) // retire the blocked task from current
					blocked = append(blocked, tk)
				}
			}
			// A task blocked in churn's last round can still be current
			// when the loop above re-blocks it — dedupe before waking,
			// or the second wake sees the first wake's successor tags.
			seen := map[*task.Task]bool{}
			uniq := blocked[:0]
			for _, tk := range blocked {
				if !seen[tk] {
					seen[tk] = true
					uniq = append(uniq, tk)
				}
			}
			blocked = uniq
			if len(blocked) == 0 {
				t.Fatal("churn left no blocked tasks to audit")
			}

			succ := experiments.Factory(to)(env)
			kernelSwap(t, h, env, succ, blocked)

			for _, tk := range blocked {
				tk.State = task.Running
				succ.AddToRunqueue(tk)
				if !tk.OnRunqueue() {
					t.Fatalf("%s dropped task %v woken from a cfs-era block", to, tk)
				}
			}

			// Every woken task must actually be schedulable under the
			// successor, not just counted.
			picked := map[*task.Task]bool{}
			blockedLeft := func() bool {
				for _, tk := range blocked {
					if !picked[tk] {
						return true
					}
				}
				return false
			}
			for left := 0; left < 20*n && blockedLeft(); left++ {
				for cpu := 0; cpu < ncpu; cpu++ {
					if next := h.schedule(cpu); next != nil {
						picked[next] = true
						h.block(cpu)
						h.schedule(cpu)
					}
				}
				for _, tk := range tasks {
					if !tk.Runnable() && !picked[tk] {
						tk.State = task.Running
						succ.AddToRunqueue(tk)
					}
				}
			}
			for _, tk := range blocked {
				if !picked[tk] {
					t.Fatalf("task %v woken after cfs swap never scheduled by %s", tk, to)
				}
			}
		})
	}
}

func TestSwapPreservesQueuedMultisetAllPairs(t *testing.T) {
	for _, spec := range swapSpecs {
		for _, from := range experiments.Policies {
			for _, to := range experiments.Policies {
				spec, from, to := spec, from, to
				t.Run(fmt.Sprintf("%s/%s-to-%s", spec.label, from, to), func(t *testing.T) {
					t.Parallel()
					n := 3 * spec.ncpu
					env := sched.NewEnv(spec.ncpu, true, func() int { return n })
					if spec.domains > 1 {
						env.Topo = sched.UniformTopology(spec.ncpu, spec.domains)
					}
					s := experiments.Factory(from)(env)

					tasks := make([]*task.Task, 0, n)
					for i := 0; i < n; i++ {
						var tk *task.Task
						switch {
						case i%11 == 10:
							tk = task.NewRT(i+1, fmt.Sprintf("rt%d", i), task.FIFO, 1+i%99, env.Epoch)
						default:
							tk = mkTask(env, i+1, 1+(i*3)%40, 2+i%12)
						}
						if i%7 == 6 {
							tk.CPUsAllowed = 1 << uint(i%spec.ncpu)
						}
						tasks = append(tasks, tk)
						s.AddToRunqueue(tk)
					}

					h := newHarness(s, spec.ncpu)
					var blocked []*task.Task
					churn(h, spec.ncpu, 6, &blocked)

					// What the kernel would consider queued right now:
					// runnable, tracked, and not holding a CPU.
					expected := map[*task.Task]bool{}
					for _, tk := range tasks {
						if tk.Runnable() && !tk.HasCPU && tk.OnRunqueue() {
							expected[tk] = true
						}
					}

					succ := experiments.Factory(to)(env)
					exported := kernelSwap(t, h, env, succ, blocked)

					seen := map[*task.Task]bool{}
					for _, tk := range exported {
						if seen[tk] {
							t.Fatalf("task %v exported twice", tk)
						}
						seen[tk] = true
						if !expected[tk] {
							t.Fatalf("task %v exported but was not queued", tk)
						}
					}
					if len(seen) != len(expected) {
						t.Fatalf("exported %d tasks, %d were queued", len(seen), len(expected))
					}

					// Wake everything that was blocked: poisoned tags and
					// all, it must integrate cleanly into the successor.
					for _, tk := range blocked {
						tk.State = task.Running
						succ.AddToRunqueue(tk)
						if !tk.OnRunqueue() {
							t.Fatalf("%s dropped woken task %v after swap", to, tk)
						}
					}

					// The successor must eventually schedule every task.
					picked := map[*task.Task]bool{}
					for _, cur := range h.current {
						if cur != nil {
							picked[cur] = true
						}
					}
					if i := h.pickAll(-1, tasks, picked); i >= 0 {
						t.Fatalf("task %d never scheduled by %s after swap", i, to)
					}
				})
			}
		}
	}
}
