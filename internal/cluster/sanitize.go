package cluster

import (
	"fmt"
	"math"
	"sync"
)

// sanitizeVerdict is the activation sanitizer's ruling on one payload.
type sanitizeVerdict uint8

const (
	// sanitizeOK admits the payload: finite, and inside the fleet's norm
	// envelope (or the envelope is still warming up).
	sanitizeOK sanitizeVerdict = iota
	// sanitizeReject bounces the payload without training on it and
	// raises the client's suspicion score — a norm outlier that may be a
	// one-off glitch rather than a hostile client.
	sanitizeReject
	// sanitizeQuarantine terminally blocklists the client: non-finite
	// payloads (which carry no usable information at any weight), or a
	// suspicion score past the limit.
	sanitizeQuarantine
)

// sanitizeWarmup is how many accepted payload norms the fleet-wide
// envelope needs before outlier verdicts are issued. Too few samples and
// the std estimate is noise — an honest early client could trip it.
const sanitizeWarmup = 8

// The server's sanitizer settings. The factor is deliberately loose: the
// sanitizer is a tripwire for order-of-magnitude bombs, not a similarity
// filter.
const (
	// normWindow is the size of the fleet-wide rolling window of
	// accepted activation norms behind outlier detection.
	normWindow = 64
	// normFactor is the outlier threshold in standard deviations.
	normFactor = 8
	// suspicionLimit is the suspicion score at which a client is
	// quarantined. Non-finite payloads jump straight to it; norm
	// outliers add 1 each and decay on clean traffic.
	suspicionLimit = 3
)

// sanitizer screens activation payloads before they reach the scheduling
// queue: the semantic layer of the corruption defense, catching poison
// the wire checksum cannot (a hostile client frames its garbage
// correctly). It keeps one fleet-wide rolling window of accepted payload
// norms — the envelope of what healthy traffic looks like — and a
// per-client suspicion score:
//
//   - A payload containing NaN/±Inf quarantines its client immediately.
//   - A payload whose L2 norm is a statistical outlier against the
//     envelope (beyond mean + factor·std AND more than twice the mean —
//     the second clause keeps a tight low-variance envelope from
//     flagging benign drift) is rejected and suspicion rises by one.
//     The rejected payload is never queued, so poison cannot reach the
//     model even below the quarantine threshold.
//   - Suspicion at or past limit quarantines the client.
//   - Clean payloads feed the envelope and decay suspicion (halving per
//     clean sample), so a client that hit a transient glitch recovers.
//
// Outlier norms are never recorded into the envelope: a norm-bomb client
// must not be able to stretch the envelope until its bombs look normal.
type sanitizer struct {
	mu     sync.Mutex
	window int
	factor float64
	limit  float64

	norms []float64 // rolling window of accepted norms, fleet-wide
	next  int       // ring cursor once the window is full

	suspicion map[int]float64
}

func newSanitizer(window int, factor, limit float64) *sanitizer {
	return &sanitizer{
		window:    window,
		factor:    factor,
		limit:     limit,
		norms:     make([]float64, 0, window),
		suspicion: make(map[int]float64),
	}
}

// check screens one activation payload. It returns the verdict, the
// client's suspicion score after this payload (feeding the per-client
// gauge), and a human-readable reason for non-OK verdicts.
func (z *sanitizer) check(client int, data []float64) (v sanitizeVerdict, score float64, why string) {
	var sq float64
	for _, x := range data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			z.mu.Lock()
			z.suspicion[client] = z.limit
			z.mu.Unlock()
			return sanitizeQuarantine, z.limit, "non-finite activation payload"
		}
		sq += x * x
	}
	norm := math.Sqrt(sq)

	z.mu.Lock()
	defer z.mu.Unlock()
	mean, std := z.statsLocked()
	if len(z.norms) >= sanitizeWarmup && norm > mean+z.factor*std && norm > 2*mean {
		z.suspicion[client]++
		score = z.suspicion[client]
		why = fmt.Sprintf("activation norm %.3g outside envelope (mean %.3g std %.3g)", norm, mean, std)
		if score >= z.limit {
			return sanitizeQuarantine, score, why
		}
		return sanitizeReject, score, why
	}
	z.norms = z.recordLocked(norm)
	if sc, ok := z.suspicion[client]; ok {
		sc /= 2
		if sc < 0.25 {
			delete(z.suspicion, client)
			sc = 0
		} else {
			z.suspicion[client] = sc
		}
		score = sc
	}
	return sanitizeOK, score, ""
}

// recordLocked appends one accepted norm to the rolling window,
// overwriting the oldest once full. Caller must hold z.mu.
func (z *sanitizer) recordLocked(norm float64) []float64 {
	if len(z.norms) < z.window {
		return append(z.norms, norm)
	}
	z.norms[z.next] = norm
	z.next = (z.next + 1) % z.window
	return z.norms
}

// statsLocked is the envelope's mean and (population) std. Caller must
// hold z.mu.
func (z *sanitizer) statsLocked() (mean, std float64) {
	n := len(z.norms)
	if n == 0 {
		return 0, 0
	}
	for _, v := range z.norms {
		mean += v
	}
	mean /= float64(n)
	var sq float64
	for _, v := range z.norms {
		d := v - mean
		sq += d * d
	}
	return mean, math.Sqrt(sq / float64(n))
}
