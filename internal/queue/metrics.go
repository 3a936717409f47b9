package queue

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics accumulates service statistics for one training run: how long
// items waited, how many each client had served, and the queue's occupancy
// high-water mark. It answers the paper's §II concern quantitatively.
// All methods are safe for concurrent use — the live cluster runtime
// observes occupancy from session goroutines while the worker observes
// serves. Its size is bounded by the client count, not the run length:
// waits are kept as a count and a sum (the wait distribution is the
// stsl_queue_wait_seconds histogram).
type Metrics struct {
	mu           sync.Mutex
	served       int
	waitSum      time.Duration
	servedBy     map[int]int
	maxOccupancy int
}

// NewMetrics constructs an empty metrics accumulator.
func NewMetrics() *Metrics {
	return &Metrics{servedBy: make(map[int]int)}
}

// ObserveServe records one served item.
func (m *Metrics) ObserveServe(it Item, now time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.served++
	m.waitSum += it.Staleness(now)
	m.servedBy[it.ClientID()]++
}

// ObserveOccupancy records the queue length after a push.
func (m *Metrics) ObserveOccupancy(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > m.maxOccupancy {
		m.maxOccupancy = n
	}
}

// Served returns the number of items served for the given client.
func (m *Metrics) Served(clientID int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.servedBy[clientID]
}

// TotalServed returns the total items served.
func (m *Metrics) TotalServed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.served
}

// MaxOccupancy returns the queue-length high-water mark.
func (m *Metrics) MaxOccupancy() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxOccupancy
}

// MeanWait returns the average queue wait.
func (m *Metrics) MeanWait() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.served == 0 {
		return 0
	}
	return m.waitSum / time.Duration(m.served)
}

// ServiceImbalance returns (max served − min served) / max served across
// clients — 0 means perfectly fair service, →1 means some client was
// starved. Returns 0 with fewer than two clients.
func (m *Metrics) ServiceImbalance() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.servedBy) < 2 {
		return 0
	}
	minV, maxV := -1, -1
	for _, c := range m.servedBy {
		if minV == -1 || c < minV {
			minV = c
		}
		if c > maxV {
			maxV = c
		}
	}
	if maxV == 0 {
		return 0
	}
	return float64(maxV-minV) / float64(maxV)
}

// String renders a one-line summary. It copies the per-client counts
// under the lock, then delegates to the (self-locking) accessors.
func (m *Metrics) String() string {
	m.mu.Lock()
	ids := make([]int, 0, len(m.servedBy))
	counts := make(map[int]int, len(m.servedBy))
	for id, c := range m.servedBy {
		ids = append(ids, id)
		counts[id] = c
	}
	m.mu.Unlock()
	sort.Ints(ids)
	var parts []string
	for _, id := range ids {
		parts = append(parts, fmt.Sprintf("c%d:%d", id, counts[id]))
	}
	return fmt.Sprintf("served=%d meanWait=%v maxOcc=%d imbalance=%.3f per-client[%s]",
		m.TotalServed(), m.MeanWait(), m.MaxOccupancy(), m.ServiceImbalance(), strings.Join(parts, " "))
}
