package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
)

// pingpong is a small deterministic program: rank 0 sends to 1, 1
// replies, then everyone barriers.
func pingpong(payload int) func(*Comm) {
	return func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, payload, 64)
			if got := c.Recv(1).(int); got != payload+1 {
				panic(fmt.Sprintf("rank 0 got %d", got))
			}
		case 1:
			v := c.Recv(0).(int)
			c.Send(0, v+1, 64)
		}
		c.Barrier()
	}
}

func TestReliableZeroFaultsBitIdentical(t *testing.T) {
	model := DefaultModel()
	plain := Run(4, model, pingpong(7))
	model.Reliable = &Reliability{}
	reliable := Run(4, model, pingpong(7))
	for r := range plain {
		if plain[r] != reliable[r] {
			t.Fatalf("rank %d stats moved under the reliability layer with zero faults:\nplain:    %+v\nreliable: %+v",
				r, plain[r], reliable[r])
		}
	}
}

func TestReliableHealsDroppedMessage(t *testing.T) {
	model := DefaultModel()
	model.Reliable = &Reliability{}
	rec := trace.New()
	model.Trace = rec
	// Rank 0's first communication event is its Send to rank 1.
	model.Faults = NewFaultPlan().Drop(0, 0)
	var delivered int
	stats, err := RunChecked(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 42, 8)
		} else {
			delivered = c.Recv(0).(int)
		}
	})
	if err != nil {
		t.Fatalf("healed run failed: %v", err)
	}
	if delivered != 42 {
		t.Fatalf("payload lost despite healing: got %d", delivered)
	}

	base := DefaultModel()
	base.Reliable = &Reliability{}
	clean, _ := RunChecked(2, base, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 42, 8)
		} else {
			c.Recv(0)
		}
	})
	// The sender pays one extra Latency for the retransmission; the
	// receiver waits out one backoff timeout on top of the transfer.
	wantSender := clean[0].Time + base.Latency
	if diff := stats[0].Time - wantSender; diff > 1e-18 || diff < -1e-18 {
		t.Fatalf("sender clock %.12g, want %.12g (one retry latency over clean %.12g)",
			stats[0].Time, wantSender, clean[0].Time)
	}
	timeout := base.Reliable.ackTimeout(base, 8)
	wantReceiver := clean[1].Time + timeout
	if diff := stats[1].Time - wantReceiver; diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("receiver clock %.12g, want %.12g (one backoff timeout over clean %.12g)",
			stats[1].Time, wantReceiver, clean[1].Time)
	}

	retries := 0
	for _, ev := range rec.Ranks()[0].Events() {
		if ev.Kind == trace.KindRetry {
			retries++
			if ev.Peer != 1 || ev.Gen != 1 {
				t.Fatalf("retry event misattributed: %+v", ev)
			}
		}
	}
	if retries != 1 {
		t.Fatalf("want exactly 1 retry event at the sender, got %d", retries)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("healed trace violates invariants: %v", err)
	}
}

func TestReliableHealsRepeatedDropWithExponentialBackoff(t *testing.T) {
	model := DefaultModel()
	model.Reliable = &Reliability{}
	model.Faults = NewFaultPlan().DropN(0, 0, 3)
	stats, err := RunChecked(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, 8)
		} else {
			c.Recv(0)
		}
	})
	if err != nil {
		t.Fatalf("triple drop within budget must heal: %v", err)
	}
	timeout := model.Reliable.ackTimeout(model, 8)
	// 3 lost transmissions: backoff = timeout·(1+2+4).
	wantBackoff := 7 * timeout
	clean := model.Latency + model.PerByte*8
	got := stats[1].Time
	want := clean + wantBackoff
	if diff := got - want; diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("receiver clock %.12g, want transfer %.12g + backoff %.12g", got, clean, wantBackoff)
	}
}

func TestReliableDropBeyondBudgetEscalates(t *testing.T) {
	model := DefaultModel()
	model.Reliable = &Reliability{RetryBudget: 2}
	model.Faults = NewFaultPlan().DropN(0, 0, 3)
	_, err := RunChecked(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, 8)
		} else {
			c.Recv(0)
		}
	})
	var rbe *RetryBudgetError
	if !errors.As(err, &rbe) {
		t.Fatalf("want RetryBudgetError, got %v", err)
	}
	if rbe.Rank != 0 || rbe.To != 1 || rbe.Drops != 3 || rbe.Budget != 2 {
		t.Fatalf("wrong escalation detail: %+v", rbe)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("escalation must surface as a rank-0 RankError, got %v", err)
	}
}

func TestReliableHealsLongDelay(t *testing.T) {
	model := DefaultModel()
	model.Reliable = &Reliability{}
	const late = 0.5 // far beyond any ack timeout
	model.Faults = NewFaultPlan().Delay(0, 0, late)
	stats, err := RunChecked(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, 8)
		} else {
			c.Recv(0)
		}
	})
	if err != nil {
		t.Fatalf("delay heal failed: %v", err)
	}
	timeout := model.Reliable.ackTimeout(model, 8)
	if stats[1].Time >= late {
		t.Fatalf("receiver still waited the full delay (%.3g), healing did not fire", stats[1].Time)
	}
	want := model.Latency + model.PerByte*8 + timeout
	if diff := stats[1].Time - want; diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("receiver clock %.12g, want %.12g (transfer + one timeout)", stats[1].Time, want)
	}
	// A short delay inside the ack window is below the retransmission
	// threshold and must pass through unhealed.
	model.Faults = NewFaultPlan().Delay(0, 0, timeout/2)
	stats, err = RunChecked(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, 8)
		} else {
			c.Recv(0)
		}
	})
	if err != nil {
		t.Fatalf("short delay run failed: %v", err)
	}
	want = model.Latency + model.PerByte*8 + timeout/2
	if diff := stats[1].Time - want; diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("short delay must not be healed: receiver clock %.12g, want %.12g", stats[1].Time, want)
	}
}

func TestReliableHealsTruncatedSend(t *testing.T) {
	model := DefaultModel()
	model.Reliable = &Reliability{}
	model.Faults = NewFaultPlan().Truncate(0, 0)
	var got []int32
	stats, err := RunChecked(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, []int32{1, 2, 3, 4}, 16)
		} else {
			got = c.Recv(0).([]int32)
		}
	})
	if err != nil {
		t.Fatalf("truncate heal failed: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("payload arrived corrupted despite checksum healing: %v", got)
	}
	timeout := model.Reliable.ackTimeout(model, 16)
	want := model.Latency + model.PerByte*16 + timeout
	if diff := stats[1].Time - want; diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("receiver clock %.12g, want transfer + one timeout %.12g", stats[1].Time, want)
	}
}

func TestReliableHealsTruncatedCollective(t *testing.T) {
	model := DefaultModel()
	add := func(a, b int64) int64 { return a + b }
	clean := Run(2, model, func(c *Comm) {
		AllReduceSlice(c, []int64{int64(c.Rank() + 1)}, 8, add)
	})
	model.Reliable = &Reliability{}
	model.Faults = NewFaultPlan().Truncate(0, 0)
	var sum int64
	stats, err := RunChecked(2, model, func(c *Comm) {
		s := AllReduceSlice(c, []int64{int64(c.Rank() + 1)}, 8, add)[0]
		if c.Rank() == 0 {
			sum = s
		}
	})
	if err != nil {
		t.Fatalf("collective truncate heal failed: %v", err)
	}
	if sum != 3 {
		t.Fatalf("collective combined corrupted data: sum %d, want 3", sum)
	}
	// The retransmission timeout enters the rendezvous max, so both
	// ranks end strictly later than the clean run.
	for r := range stats {
		if stats[r].Time <= clean[r].Time {
			t.Fatalf("rank %d clock %.12g not charged for the collective retransmission (clean %.12g)",
				r, stats[r].Time, clean[r].Time)
		}
	}
}

func TestReliableUnaffectedRanksKeepClocks(t *testing.T) {
	model := DefaultModel()
	base := Run(4, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, 16)
		}
		if c.Rank() == 1 {
			c.Recv(0)
		}
		if c.Rank() == 2 {
			c.Send(3, 9, 16)
		}
		if c.Rank() == 3 {
			c.Recv(2)
		}
	})
	model.Reliable = &Reliability{}
	model.Faults = NewFaultPlan().Drop(0, 0)
	healed := Run(4, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, 16)
		}
		if c.Rank() == 1 {
			c.Recv(0)
		}
		if c.Rank() == 2 {
			c.Send(3, 9, 16)
		}
		if c.Rank() == 3 {
			c.Recv(2)
		}
	})
	for _, r := range []int{2, 3} {
		if base[r].Time != healed[r].Time || base[r].CommTime != healed[r].CommTime {
			t.Fatalf("rank %d is off the faulted link but its clock moved: %+v vs %+v", r, base[r], healed[r])
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	model := DefaultModel()
	var snap RankSnapshot
	Run(1, model, func(c *Comm) {
		c.ChargeTime(1.5)
		c.Barrier()
		snap = c.Snapshot()
	})
	if snap.Clock < 1.5 || snap.Events != 1 {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
	stats := Run(1, model, func(c *Comm) {
		c.Restore(snap)
		if c.Elapsed() != snap.Clock || c.Events() != snap.Events {
			panic("restore did not rewind counters")
		}
		c.ChargeTime(0.5)
	})
	if want := snap.Clock + 0.5; stats[0].Time != want {
		t.Fatalf("restored clock %.12g, want %.12g", stats[0].Time, want)
	}
	if stats[0].Events != snap.Events {
		t.Fatalf("restored events %d, want %d", stats[0].Events, snap.Events)
	}
}

func TestSetWatchdogTimeout(t *testing.T) {
	prev := SetWatchdogTimeout(80 * time.Millisecond)
	defer SetWatchdogTimeout(0)
	if prev != DefaultWatchdogWindow {
		t.Fatalf("previous default %v, want %v", prev, DefaultWatchdogWindow)
	}
	if got := WatchdogTimeout(); got != 80*time.Millisecond {
		t.Fatalf("WatchdogTimeout() = %v after set", got)
	}
	// A genuine deadlock (unhealed drop) must now be detected without a
	// per-run Model.Watchdog override, well inside the 2 s default.
	model := DefaultModel()
	model.Faults = NewFaultPlan().Drop(0, 0)
	start := time.Now()
	_, err := RunChecked(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, 8)
		} else {
			c.Recv(0)
		}
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if dl.Window != 80*time.Millisecond {
		t.Fatalf("watchdog ran with window %v, want the configured 80ms", dl.Window)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("configured watchdog took %v, should fire in ~80-320ms", elapsed)
	}
	SetWatchdogTimeout(-1)
	if got := WatchdogTimeout(); got != DefaultWatchdogWindow {
		t.Fatalf("non-positive reset gave %v, want built-in default", got)
	}
}
