package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names recorded around the calls into each layer. The live round
// records the first six at the end-system's connection; the staged
// replay records one span per layer call under a "step" parent.
const (
	spanSession = "session"
	spanJoin    = "cluster.join"
	spanCompute = "client.compute"
	spanSend    = "transport.send"
	spanWait    = "client.wait"
	spanLeave   = "cluster.leave"
)

// span is one timed interval. Spans of one session share Trace (the
// end-system id); Parent is the ID of the span that caused this one (0
// for a root). Start and End are nanoseconds since the round began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the round ends. It is used from
// one goroutine at a time per session; sessions that run concurrently
// each fill their own recorder and are merged afterwards.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) add(parent, trace int, name string, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// merge appends other's spans, renumbering them past r's.
func (r *recorder) merge(other *recorder) {
	off := len(r.spans)
	for _, s := range other.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, children are clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[p.ID] = time.Duration(p.End - p.Start - covered)
	}
	return out
}

// durationsMs collects the durations of every span called name, in
// milliseconds.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// writeTrace writes one JSON object per span, with its self time.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	self := selfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID].Nanoseconds()}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write trace %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// spansOfTrace keeps the spans that share one trace id.
func spansOfTrace(spans []span, trace int) []span {
	var out []span
	for _, s := range spans {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
