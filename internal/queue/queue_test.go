package queue

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/transport"
)

func item(client, seq int, sentAt, arrived time.Duration) Item {
	return Item{
		Msg: &transport.Message{
			Type: MsgTypeForTest, ClientID: client, Seq: seq, SentAt: sentAt,
		},
		ArrivedAt: arrived,
	}
}

// MsgTypeForTest keeps test items valid without payload requirements.
const MsgTypeForTest = transport.MsgControl

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO()
	for i := 0; i < 5; i++ {
		q.Push(item(0, i, 0, time.Duration(i)))
	}
	for i := 0; i < 5; i++ {
		it, ok := q.Pop(0)
		if !ok || it.Msg.Seq != i {
			t.Fatalf("pop %d: ok=%v seq=%d", i, ok, it.Msg.Seq)
		}
	}
	if _, ok := q.Pop(0); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestStalenessPriorityServesOldestFirst(t *testing.T) {
	q := NewStalenessPriority()
	q.Push(item(0, 1, 30*time.Millisecond, 0))
	q.Push(item(1, 2, 10*time.Millisecond, 0)) // oldest send time
	q.Push(item(2, 3, 20*time.Millisecond, 0))
	wantSeq := []int{2, 3, 1}
	for i, want := range wantSeq {
		it, ok := q.Pop(0)
		if !ok || it.Msg.Seq != want {
			t.Fatalf("pop %d: seq=%d, want %d", i, it.Msg.Seq, want)
		}
	}
}

func TestStalenessPriorityTieBreaksOnArrival(t *testing.T) {
	q := NewStalenessPriority()
	q.Push(item(0, 1, time.Millisecond, 5*time.Millisecond))
	q.Push(item(1, 2, time.Millisecond, 2*time.Millisecond))
	it, _ := q.Pop(0)
	if it.Msg.Seq != 2 {
		t.Fatalf("tie broken wrong: seq %d", it.Msg.Seq)
	}
}

func TestFairRoundRobinRotation(t *testing.T) {
	q := NewFairRoundRobin()
	// Client 0 floods; client 1 has one item.
	for i := 0; i < 5; i++ {
		q.Push(item(0, i, 0, 0))
	}
	q.Push(item(1, 100, 0, 0))
	first, _ := q.Pop(0)
	second, _ := q.Pop(0)
	// Rotation must serve both clients within the first two pops.
	clients := map[int]bool{first.ClientID(): true, second.ClientID(): true}
	if !clients[0] || !clients[1] {
		t.Fatalf("rotation served %v", clients)
	}
	// Remaining pops drain client 0 in order.
	prev := -1
	for {
		it, ok := q.Pop(0)
		if !ok {
			break
		}
		if it.ClientID() == 0 {
			if it.Msg.Seq <= prev {
				t.Fatal("per-client order violated")
			}
			prev = it.Msg.Seq
		}
	}
}

func TestFairRoundRobinSkipsEmptyClients(t *testing.T) {
	q := NewFairRoundRobin()
	q.Push(item(0, 1, 0, 0))
	if _, ok := q.Pop(0); !ok {
		t.Fatal("pop failed")
	}
	// Client 0 now empty; client 1 pushes.
	q.Push(item(1, 2, 0, 0))
	it, ok := q.Pop(0)
	if !ok || it.ClientID() != 1 {
		t.Fatalf("pop = %+v ok=%v", it, ok)
	}
}

func TestPoliciesConserveItems(t *testing.T) {
	// Property: across any push/pop interleaving, nothing is lost or
	// duplicated.
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		for _, name := range []string{"fifo", "staleness", "fair-rr"} {
			q, err := NewPolicy(name)
			if err != nil {
				return false
			}
			pushed := make(map[int]int)
			popped := make(map[int]int)
			seq := 0
			for op := 0; op < 200; op++ {
				if r.Float64() < 0.6 {
					client := r.Intn(4)
					q.Push(item(client, seq, time.Duration(r.Intn(1000)), time.Duration(op)))
					pushed[seq]++
					seq++
				} else if it, ok := q.Pop(time.Duration(op)); ok {
					popped[it.Msg.Seq]++
				}
			}
			for q.Len() > 0 {
				it, ok := q.Pop(0)
				if !ok {
					return false // Len>0 but Pop failed
				}
				popped[it.Msg.Seq]++
			}
			if len(pushed) != len(popped) {
				return false
			}
			for s, c := range pushed {
				if popped[s] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPopBatchMatchesConsecutivePops(t *testing.T) {
	// Property: for ungated policies, PopBatch(now, k) returns exactly
	// the items k consecutive Pops would, in the same order.
	build := func(name string) Policy {
		q, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, name := range []string{"fifo", "staleness", "fair-rr"} {
		name := name
		t.Run(name, func(t *testing.T) {
			ref, batched := build(name), build(name)
			for i := 0; i < 17; i++ {
				it := item(i%3, i, time.Duration(1000-i), time.Duration(i))
				ref.Push(it)
				batched.Push(it)
			}
			for batched.Len() > 0 {
				batch := batched.PopBatch(0, 4)
				if len(batch) == 0 {
					t.Fatal("PopBatch empty with items queued")
				}
				for _, got := range batch {
					want, ok := ref.Pop(0)
					if !ok || want.Msg.Seq != got.Msg.Seq {
						t.Fatalf("batch pick seq %d, consecutive pop seq %d (ok=%v)",
							got.Msg.Seq, want.Msg.Seq, ok)
					}
				}
			}
			if len(batched.PopBatch(0, 4)) != 0 {
				t.Fatal("PopBatch from empty queue returned items")
			}
		})
	}
}

func TestPopBatchMaxClamp(t *testing.T) {
	q := NewFIFO()
	for i := 0; i < 3; i++ {
		q.Push(item(0, i, 0, 0))
	}
	if got := len(q.PopBatch(0, 0)); got != 1 {
		t.Fatalf("max<=0 popped %d items, want 1", got)
	}
	if got := len(q.PopBatch(0, 10)); got != 2 {
		t.Fatalf("oversized max popped %d items, want the 2 remaining", got)
	}
}

func TestSyncRoundsPopBatchAtomicRound(t *testing.T) {
	q := NewSyncRounds([]int{0, 1, 2})
	q.Push(item(0, 1, 0, 0))
	q.Push(item(1, 2, 0, 0))
	if batch := q.PopBatch(0, 8); len(batch) != 0 {
		t.Fatalf("gate held but PopBatch returned %d items", len(batch))
	}
	q.Push(item(2, 3, 0, 0))
	q.Push(item(0, 4, 0, 0))  // second item for client 0 — next round's
	batch := q.PopBatch(0, 2) // max below the round size: round is atomic
	if len(batch) != 3 {
		t.Fatalf("open gate returned %d items, want the whole round of 3", len(batch))
	}
	seen := map[int]int{}
	for _, it := range batch {
		seen[it.ClientID()]++
	}
	for id := 0; id < 3; id++ {
		if seen[id] != 1 {
			t.Fatalf("round served client %d %d times, want exactly once (%v)", id, seen[id], seen)
		}
	}
	// Client 0's second item alone cannot open the next round.
	if batch := q.PopBatch(0, 8); len(batch) != 0 {
		t.Fatalf("partial next round returned %d items", len(batch))
	}
}

func TestSyncRoundsPopBatchSerialWhenCoalescingOff(t *testing.T) {
	// max <= 1 must behave exactly like Pop: one item per call, so a
	// deployment without coalescing keeps the serial discipline's
	// one-optimiser-step-per-item semantics.
	q := NewSyncRounds([]int{0, 1})
	q.Push(item(0, 1, 0, 0))
	if batch := q.PopBatch(0, 1); len(batch) != 0 {
		t.Fatalf("gate held but serial PopBatch returned %d items", len(batch))
	}
	q.Push(item(1, 2, 0, 0))
	if batch := q.PopBatch(0, 1); len(batch) != 1 {
		t.Fatalf("serial PopBatch returned %d items, want exactly 1", len(batch))
	}
	if batch := q.PopBatch(0, 1); len(batch) != 0 {
		t.Fatalf("second serial PopBatch returned %d items with the gate closed", len(batch))
	}
}

func TestSyncRoundsPopBatchDrainsAfterDeactivation(t *testing.T) {
	q := NewSyncRounds([]int{0, 1})
	q.Push(item(0, 1, 0, 0))
	q.Push(item(0, 2, 0, 0))
	q.Deactivate(0)
	q.Deactivate(1)
	if got := len(q.PopBatch(0, 8)); got != 2 {
		t.Fatalf("drain mode popped %d items, want 2", got)
	}
}

func TestSyncRoundsGateAndDeactivate(t *testing.T) {
	q := NewSyncRounds([]int{0, 1})
	q.Push(item(0, 1, 0, 0))
	// Gate closed: client 1 has nothing yet.
	if _, ok := q.Pop(0); ok {
		t.Fatal("gate open with missing client")
	}
	q.Push(item(1, 2, 0, 0))
	if _, ok := q.Pop(0); !ok {
		t.Fatal("gate closed with all clients present")
	}
	// After the pop one bucket is empty → gate closed again.
	if _, ok := q.Pop(0); ok {
		t.Fatal("gate open after bucket drained")
	}
	// Deactivating the empty client lets the rest drain.
	q.Deactivate(0) // popped client was 0 (rotation starts at first seen)
	q.Deactivate(1)
	if q.Len() > 0 {
		if _, ok := q.Pop(0); !ok {
			t.Fatal("drain failed after deactivation")
		}
	}
}

func TestSyncRoundsName(t *testing.T) {
	if got := NewSyncRounds(nil).Name(); got != "sync-rounds" {
		t.Fatalf("Name = %q", got)
	}
}

func TestNewPolicy(t *testing.T) {
	for _, name := range []string{"fifo", "staleness", "fair-rr"} {
		q, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if q.Name() != name {
			t.Fatalf("Name = %q, want %q", q.Name(), name)
		}
	}
	if _, err := NewPolicy("lifo"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics()
	if m.TotalServed() != 0 || m.MeanWait() != 0 {
		t.Fatal("fresh metrics not zero")
	}
	m.ObserveOccupancy(3)
	m.ObserveOccupancy(1)
	if m.MaxOccupancy() != 3 {
		t.Fatalf("MaxOccupancy = %d", m.MaxOccupancy())
	}
	// Client 0 served twice with waits 10ms and 30ms; client 1 once.
	m.ObserveServe(item(0, 1, 0, 0), 10*time.Millisecond)
	m.ObserveServe(item(0, 2, 0, 0), 30*time.Millisecond)
	m.ObserveServe(item(1, 3, 0, 10*time.Millisecond), 20*time.Millisecond)
	if m.TotalServed() != 3 {
		t.Fatalf("TotalServed = %d", m.TotalServed())
	}
	if m.Served(0) != 2 || m.Served(1) != 1 {
		t.Fatal("per-client served counts wrong")
	}
	wantMean := (10 + 30 + 10) * time.Millisecond / 3
	if got := m.MeanWait(); got != wantMean {
		t.Fatalf("MeanWait = %v, want %v", got, wantMean)
	}
	if imb := m.ServiceImbalance(); imb != 0.5 {
		t.Fatalf("ServiceImbalance = %v, want 0.5", imb)
	}
	if s := m.String(); s == "" {
		t.Fatal("empty String()")
	}
}
