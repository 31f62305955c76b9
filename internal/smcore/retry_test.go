package smcore

import (
	"testing"

	"github.com/nuba-gpu/nuba/internal/config"
	"github.com/nuba-gpu/nuba/internal/sim"
)

// A load that cannot be tracked this cycle — the L1 MSHR file is full, or
// it would be a primary miss and the send queue is full — is retried every
// cycle until the structure drains. A retry must create nothing: building
// the request before asking (as accessL1 once did, as an argument of
// MSHRFile.Allocate) burned one MemReq and one request id per stalled
// cycle, and the send-queue rollback one more.

// holdStalled ticks the rig until stalled() holds, then n more cycles, and
// returns the request-id sequence and per-cycle allocation count over
// those n. Memory never answers while it runs.
func holdStalled(t *testing.T, r *testRig, n int, stalled func() bool) (seqBefore, seqAfter uint64, allocsPerCycle float64) {
	t.Helper()
	now := sim.Cycle(0)
	for !stalled() {
		now++
		if now > 400000 {
			t.Fatal("never reached the stalled state")
		}
		r.tick(now)
	}
	// A few more cycles so the LSU is parked on the stalled line.
	for i := 0; i < 8; i++ {
		now++
		r.tick(now)
	}
	seqBefore = r.sm.reqSeq
	sentBefore := r.sent
	allocsPerCycle = testing.AllocsPerRun(n, func() {
		now++
		r.tick(now)
	})
	if r.sent != sentBefore {
		t.Fatalf("requests went out during the hold (%d -> %d): not stalled", sentBefore, r.sent)
	}
	return seqBefore, r.sm.reqSeq, allocsPerCycle
}

func TestStalledLoadRetryCreatesNothing(t *testing.T) {
	const hold = 500
	t.Run("mshr-full", func(t *testing.T) {
		// Two entries, a memory that does not answer: the third distinct
		// line stalls on the full file.
		r := newRigWith(t, 1<<40, func(c *config.Config) { c.L1MSHRs = 2 })
		r.sm.StartKernel(rigLaunch(t, 4, 4), 0, 4)
		stalls := r.sm.L1MSHRStalls()
		before, after, allocs := holdStalled(t, r, hold, func() bool { return r.sm.L1MSHRStalls() > 0 })
		if got := r.sm.L1MSHRStalls() - stalls; got < hold {
			t.Fatalf("only %d MSHR-full retries in %d cycles: the file was not held full", got, hold)
		}
		if after != before {
			t.Errorf("%d request ids burned over %d stalled cycles", after-before, hold)
		}
		if allocs != 0 {
			t.Errorf("%.0f allocations per stalled cycle, want 0", allocs)
		}
		checkDense(t, r)
	})
	t.Run("send-queue-full", func(t *testing.T) {
		// The interconnect refuses everything: the send queue fills and
		// the next primary miss stalls with MSHR room to spare.
		r := newRigWith(t, 1<<40, func(*config.Config) {})
		r.sm.Send = func(*sim.MemReq, sim.Cycle) bool { return false }
		r.sm.StartKernel(rigLaunch(t, 4, 4), 0, 4)
		before, after, allocs := holdStalled(t, r, hold, func() bool { return r.sm.sendQueue.Full() })
		if r.sm.L1MSHRStalls() != 0 {
			t.Fatal("MSHR file filled: this case is meant to stall on the send queue alone")
		}
		if after != before {
			t.Errorf("%d request ids burned over %d stalled cycles", after-before, hold)
		}
		if allocs != 0 {
			t.Errorf("%.0f allocations per stalled cycle, want 0", allocs)
		}
		checkDense(t, r)
	})
}

// checkDense asserts every request id the SM has issued belongs to a
// request that exists: in flight toward memory, merged behind one, or
// waiting in the send queue.
func checkDense(t *testing.T, r *testRig) {
	t.Helper()
	if live := uint64(r.sm.LiveRequests()); r.sm.reqSeq != live {
		t.Errorf("request ids are not dense: %d issued, %d requests live with memory silent", r.sm.reqSeq, live)
	}
}

// TestRequestsRetireAtTheirSM is conservation at the SM: once the kernel
// has drained, every request the SM created has come back and been
// retired, merged waiters included.
func TestRequestsRetireAtTheirSM(t *testing.T) {
	r := newRig(t, 40)
	l := rigLaunch(t, 8, 4)
	r.sm.StartKernel(l, 0, 8)
	r.runToIdle(t, 400000)
	if r.sm.reqSeq == 0 {
		t.Fatal("no requests created")
	}
	if live := r.sm.LiveRequests(); live != 0 {
		t.Fatalf("%d requests never retired", live)
	}
	r.sm.FlushL1()
	r.sm.StartKernel(l, 0, 8)
	r.runToIdle(t, 800000)
	if live := r.sm.LiveRequests(); live != 0 {
		t.Fatalf("%d requests never retired after the second kernel", live)
	}
}
