package queue

import (
	"sync"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/transport"
)

// TestSafeConcurrentStress hammers the thread-safe wrapper from N
// producer goroutines with one concurrent consumer, for every scheduling
// policy, and asserts exactly-once delivery: no item lost, none served
// twice. Run with -race (CI does) to also prove memory safety.
func TestSafeConcurrentStress(t *testing.T) {
	const (
		producers    = 8
		perProducer  = 500
		totalItems   = producers * perProducer
		consumerIdle = time.Microsecond
	)
	for _, name := range []string{"fifo", "staleness", "fair-rr"} {
		name := name
		t.Run(name, func(t *testing.T) {
			inner, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			q := NewSafe(inner)

			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						q.Push(Item{
							Msg: &transport.Message{
								Type:     transport.MsgControl,
								ClientID: p,
								Seq:      i,
								SentAt:   time.Duration(p*perProducer + i),
							},
							ArrivedAt: time.Duration(p*perProducer + i),
						})
					}
				}()
			}
			producersDone := make(chan struct{})
			go func() {
				wg.Wait()
				close(producersDone)
			}()

			seen := make(map[[2]int]int, totalItems)
			popped := 0
			drained := false
			for popped < totalItems {
				it, ok := q.Pop(time.Duration(popped))
				if !ok {
					if drained {
						t.Fatalf("queue empty after producers done: %d/%d items", popped, totalItems)
					}
					select {
					case <-producersDone:
						// One more full drain pass, then emptiness is loss.
						if q.Len() == 0 {
							drained = true
						}
					case <-time.After(consumerIdle):
					}
					continue
				}
				key := [2]int{it.ClientID(), it.Msg.Seq}
				seen[key]++
				if seen[key] > 1 {
					t.Fatalf("item %v served %d times", key, seen[key])
				}
				popped++
			}
			if it, ok := q.Pop(0); ok {
				t.Fatalf("phantom extra item %v after full drain", [2]int{it.ClientID(), it.Msg.Seq})
			}
			if len(seen) != totalItems {
				t.Fatalf("served %d distinct items, want %d", len(seen), totalItems)
			}
		})
	}
}

// TestSafePopBatchConcurrentStress is the batched-worker analogue of
// TestSafeConcurrentStress, covering all four policies including the
// gated sync-rounds: one consumer drains in batches of varying size
// while producer goroutines push concurrently, and each producer
// deactivates itself once exhausted — so deactivation races live pops
// and pushes, exactly as a straggler eviction races the live worker.
// Exactly-once: no pushed item is lost or served twice. Run with -race.
func TestSafePopBatchConcurrentStress(t *testing.T) {
	const (
		producers    = 8
		perProducer  = 400
		totalItems   = producers * perProducer
		consumerIdle = time.Microsecond
	)
	clientIDs := make([]int, producers)
	for i := range clientIDs {
		clientIDs[i] = i
	}
	builders := []struct {
		name  string
		build func() Policy
	}{
		{"fifo", func() Policy { return NewFIFO() }},
		{"staleness", func() Policy { return NewStalenessPriority() }},
		{"fair-rr", func() Policy { return NewFairRoundRobin() }},
		{"sync-rounds", func() Policy { return NewSyncRounds(clientIDs) }},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			q := NewSafe(b.build())

			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						q.Push(Item{
							Msg: &transport.Message{
								Type:     transport.MsgControl,
								ClientID: p,
								Seq:      i,
								SentAt:   time.Duration(p*perProducer + i),
							},
							ArrivedAt: time.Duration(p*perProducer + i),
						})
					}
					// Budget exhausted: leave the gate while the consumer
					// is mid-drain (no-op for ungated policies).
					q.Deactivate(p)
				}()
			}
			producersDone := make(chan struct{})
			go func() {
				wg.Wait()
				close(producersDone)
			}()

			seen := make(map[[2]int]int, totalItems)
			popped := 0
			drained := false
			for popped < totalItems {
				// Cycle the batch bound so single pops, partial batches
				// and oversized requests all interleave with pushes.
				batch := q.PopBatch(time.Duration(popped), 1+popped%5)
				if len(batch) == 0 {
					if drained {
						t.Fatalf("queue empty after producers done: %d/%d items", popped, totalItems)
					}
					select {
					case <-producersDone:
						// One more full drain pass, then emptiness is loss.
						if q.Len() == 0 {
							drained = true
						}
					case <-time.After(consumerIdle):
					}
					continue
				}
				for _, it := range batch {
					key := [2]int{it.ClientID(), it.Msg.Seq}
					seen[key]++
					if seen[key] > 1 {
						t.Fatalf("item %v served %d times", key, seen[key])
					}
					popped++
				}
			}
			if extra := q.PopBatch(0, 8); len(extra) != 0 {
				t.Fatalf("phantom %d extra items after full drain", len(extra))
			}
			if len(seen) != totalItems {
				t.Fatalf("served %d distinct items, want %d", len(seen), totalItems)
			}
		})
	}
}

// TestSafeTryPushCap checks the cap is enforced atomically under
// concurrent producers: the queue never exceeds the cap.
func TestSafeTryPushCap(t *testing.T) {
	const cap = 4
	q := NewSafe(NewFIFO())
	var wg sync.WaitGroup
	var over sync.Map
	for p := 0; p < 8; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q.TryPushParking(Item{Msg: &transport.Message{Type: transport.MsgControl, ClientID: p, Seq: i}}, cap, true)
				if n := q.Len(); n > cap {
					over.Store(n, true)
				}
			}
		}()
	}
	wg.Wait()
	over.Range(func(k, v any) bool {
		t.Errorf("queue depth %v exceeded cap %d", k, cap)
		return true
	})
}

// TestSafeNotifications checks the edge-triggered wakeup channels fire
// on push and pop.
func TestSafeNotifications(t *testing.T) {
	q := NewSafe(NewFIFO())
	q.Push(Item{Msg: &transport.Message{Type: transport.MsgControl}})
	select {
	case <-q.Pushed():
	default:
		t.Fatal("no pushed signal after Push")
	}
	if _, ok := q.Pop(0); !ok {
		t.Fatal("pop failed")
	}
	select {
	case <-q.Popped():
	default:
		t.Fatal("no popped signal after Pop")
	}
}

// TestSafeDeactivateOpensGate verifies Deactivate forwards to a gated
// policy and signals consumers.
func TestSafeDeactivateOpensGate(t *testing.T) {
	q := NewSafe(NewSyncRounds([]int{0, 1}))
	q.Push(Item{Msg: &transport.Message{Type: transport.MsgControl, ClientID: 0}})
	if _, ok := q.Pop(0); ok {
		t.Fatal("gate should hold until every active client has an item")
	}
	q.Deactivate(1)
	select {
	case <-q.Pushed():
	default:
		t.Fatal("no wakeup signal after Deactivate")
	}
	if _, ok := q.Pop(0); !ok {
		t.Fatal("gate should open once client 1 is deactivated")
	}
}

// TestSafeRequeue verifies popped items can be returned to the policy
// with their original arrival times, so a staleness-ordered discipline
// restores their true priority, and that consumers are woken.
func TestSafeRequeue(t *testing.T) {
	q := NewSafe(NewStalenessPriority())
	mk := func(id int, sentAt time.Duration) Item {
		return Item{
			Msg:       &transport.Message{Type: transport.MsgControl, ClientID: id, SentAt: sentAt},
			ArrivedAt: sentAt,
		}
	}
	q.Push(mk(0, 30))
	q.Push(mk(1, 10)) // oldest — highest staleness priority
	q.Push(mk(2, 20))

	batch := q.PopBatch(100, 2)
	if len(batch) != 2 || batch[0].ClientID() != 1 || batch[1].ClientID() != 2 {
		t.Fatalf("popped %v, want clients [1 2] in staleness order", batch)
	}
	// The consumer could not process the batch; put it back.
	q.Requeue(batch...)
	select {
	case <-q.Pushed():
	default:
		t.Fatal("no wakeup signal after Requeue")
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("len %d after requeue, want 3", got)
	}
	// Priority is restored from the preserved timestamps, not requeue
	// order.
	for _, want := range []int{1, 2, 0} {
		it, ok := q.Pop(100)
		if !ok || it.ClientID() != want {
			t.Fatalf("pop got client %d (ok=%v), want %d", it.ClientID(), ok, want)
		}
	}
	// Drain the cascade edge first: the pops above re-arm Pushed()
	// while items remain so sibling consumers in a pool get woken.
	select {
	case <-q.Pushed():
	default:
	}
	// Requeueing nothing must not signal.
	q.Requeue()
	select {
	case <-q.Pushed():
		t.Fatal("empty Requeue signalled consumers")
	default:
	}
}

// TestSafeConcurrentPoppersExactlyOnce is the worker-pool contract: N
// consumer goroutines PopBatch from one Safe queue while producers push
// concurrently and deactivate themselves mid-stream (the shape of a
// straggler eviction racing live workers on another replica). Across
// all four policies every pushed item must be served exactly once —
// no item lost between poppers, none double-scattered, and no popper
// stranded by the edge-triggered push signal (the cascade wakeup).
// Run with -race.
func TestSafeConcurrentPoppersExactlyOnce(t *testing.T) {
	const (
		producers   = 6
		poppers     = 4
		perProducer = 300
		totalItems  = producers * perProducer
	)
	clientIDs := make([]int, producers)
	for i := range clientIDs {
		clientIDs[i] = i
	}
	builders := []struct {
		name  string
		build func() Policy
	}{
		{"fifo", func() Policy { return NewFIFO() }},
		{"staleness", func() Policy { return NewStalenessPriority() }},
		{"fair-rr", func() Policy { return NewFairRoundRobin() }},
		{"sync-rounds", func() Policy { return NewSyncRounds(clientIDs) }},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			q := NewSafe(b.build())

			var pwg sync.WaitGroup
			for p := 0; p < producers; p++ {
				p := p
				pwg.Add(1)
				go func() {
					defer pwg.Done()
					for i := 0; i < perProducer; i++ {
						q.Push(Item{
							Msg: &transport.Message{
								Type:     transport.MsgControl,
								ClientID: p,
								Seq:      i,
								SentAt:   time.Duration(p*perProducer + i),
							},
							ArrivedAt: time.Duration(p*perProducer + i),
						})
					}
					// Budget exhausted: leave the gate while poppers are
					// mid-drain (no-op for ungated policies).
					q.Deactivate(p)
				}()
			}

			var (
				mu     sync.Mutex
				seen   = make(map[[2]int]int, totalItems)
				dup    [2]int
				dupped bool
				popped int64 // guarded by mu
			)
			var cwg sync.WaitGroup
			for c := 0; c < poppers; c++ {
				c := c
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					for n := 0; ; n++ {
						mu.Lock()
						done := popped >= totalItems || dupped
						mu.Unlock()
						if done {
							return
						}
						// Cycle the batch bound so single pops, partial
						// batches and oversized requests all interleave.
						batch := q.PopBatch(time.Duration(n), 1+(c+n)%5)
						if len(batch) == 0 {
							// The cascade wakeup re-arms Pushed() while
							// items remain, so a short timeout here is a
							// liveness backstop, not the drain mechanism.
							select {
							case <-q.Pushed():
							case <-time.After(2 * time.Millisecond):
							}
							continue
						}
						mu.Lock()
						for _, it := range batch {
							key := [2]int{it.ClientID(), it.Msg.Seq}
							seen[key]++
							if seen[key] > 1 && !dupped {
								dupped, dup = true, key
							}
						}
						popped += int64(len(batch))
						mu.Unlock()
					}
				}()
			}

			producersDone := make(chan struct{})
			go func() { pwg.Wait(); close(producersDone) }()
			select {
			case <-producersDone:
			case <-time.After(30 * time.Second):
				t.Fatal("producers wedged")
			}
			consumersDone := make(chan struct{})
			go func() { cwg.Wait(); close(consumersDone) }()
			select {
			case <-consumersDone:
			case <-time.After(30 * time.Second):
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("poppers stalled at %d/%d items (lost wakeup?)", popped, totalItems)
			}

			if dupped {
				t.Fatalf("item %v served more than once", dup)
			}
			if len(seen) != totalItems {
				t.Fatalf("served %d distinct items, want %d", len(seen), totalItems)
			}
			if it, ok := q.Pop(0); ok {
				t.Fatalf("phantom extra item %v after full drain", [2]int{it.ClientID(), it.Msg.Seq})
			}
		})
	}
}

// TestSafeCounterOwnership: a park is counted by the queue itself,
// inside the critical section that refused the push — the admission
// caller owns no counter increments.
func TestSafeCounterOwnership(t *testing.T) {
	reg := obs.NewRegistry()
	ins := NewInstruments(reg, "fifo")
	q := NewSafe(NewFIFO())
	q.SetInstruments(ins)

	item := func(seq int) Item {
		return Item{Msg: &transport.Message{Type: transport.MsgControl, Seq: seq}}
	}
	const cap = 2
	for i := 0; i < cap; i++ {
		if !q.TryPushParking(item(i), cap, true) {
			t.Fatalf("push %d refused below cap", i)
		}
	}
	if got := ins.Parked.Value(); got != 0 {
		t.Fatalf("Parked = %d before any refusal", got)
	}

	// One parked admission counts once, however many retry rounds it
	// takes.
	if q.TryPushParking(item(20), cap, true) {
		t.Fatal("parking push above cap succeeded")
	}
	for i := 0; i < 5; i++ {
		if q.TryPushParking(item(20), cap, false) {
			t.Fatal("parking retry above cap succeeded")
		}
	}
	if got := ins.Parked.Value(); got != 1 {
		t.Errorf("Parked = %d, want 1 (retries must not re-count)", got)
	}

	// Headroom opens, the retry lands: counted as enqueued, nothing else.
	if _, ok := q.Pop(0); !ok {
		t.Fatal("pop failed")
	}
	if !q.TryPushParking(item(20), cap, false) {
		t.Fatal("parking push with headroom refused")
	}
	if got := ins.Enqueued.Value(); got != cap+1 {
		t.Errorf("Enqueued = %d, want %d", got, cap+1)
	}
	if got := ins.Parked.Value(); got != 1 {
		t.Errorf("Parked = %d after the successful retry, want 1", got)
	}
}

// TestSafePopBatchDeadline: expired items are shed under the pop's
// critical section — returned separately, counted as Expired (never
// Dequeued), and an all-expired draw redraws so fresh work behind the
// backlog is not starved.
func TestSafePopBatchDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	ins := NewInstruments(reg, "fifo")
	q := NewSafe(NewFIFO())
	q.SetInstruments(ins)

	item := func(seq int, deadline time.Duration) Item {
		return Item{
			Msg:      &transport.Message{Type: transport.MsgControl, ClientID: seq, Seq: seq},
			Deadline: deadline,
		}
	}
	// Three expired (deadline 10), then two live (deadline 100, and none).
	for i := 0; i < 3; i++ {
		q.Push(item(i, 10))
	}
	q.Push(item(3, 100))
	q.Push(item(4, 0))

	// Draw of 2 at now=50: both picks are expired, so the draw repeats
	// and still returns fresh work.
	fresh, expired := q.PopBatchDeadline(50, 2)
	if len(expired) != 3 {
		t.Fatalf("expired %d items, want 3", len(expired))
	}
	if len(fresh) != 1 || fresh[0].Msg.Seq != 3 {
		t.Fatalf("fresh = %+v, want the seq-3 item", fresh)
	}
	if got := ins.Expired.Value(); got != 3 {
		t.Errorf("Expired counter = %d, want 3", got)
	}
	if got := ins.Dequeued.Value(); got != 1 {
		t.Errorf("Dequeued counter = %d, want 1 (expired items are not served)", got)
	}

	// The no-deadline item never expires.
	fresh, expired = q.PopBatchDeadline(time.Hour, 4)
	if len(fresh) != 1 || len(expired) != 0 || fresh[0].Msg.Seq != 4 {
		t.Fatalf("deadline-free item mishandled: fresh=%v expired=%v", fresh, expired)
	}

	// Occupancy invariant: enqueued − dequeued − expired = depth.
	depth := ins.Enqueued.Value() - ins.Dequeued.Value() - ins.Expired.Value()
	if depth != 0 || q.Len() != 0 {
		t.Errorf("occupancy invariant broken: computed %d, actual %d", depth, q.Len())
	}

	// Empty queue: both slices empty, no counter movement.
	fresh, expired = q.PopBatchDeadline(0, 4)
	if len(fresh) != 0 || len(expired) != 0 {
		t.Errorf("empty queue returned items: fresh=%v expired=%v", fresh, expired)
	}
}
