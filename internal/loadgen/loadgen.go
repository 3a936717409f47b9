// Package loadgen generates open-loop arrival processes for overload
// testing. Open-loop means the schedule is fixed before the first request
// fires: arrival times do not depend on how fast the server answers, so a
// slowing server faces the same offered load instead of the accidental
// self-throttling a closed-loop client provides. That distinction is the
// whole point — closed-loop load generators systematically understate
// overload (the coordinated-omission trap), and the paper's failure mode
// of interest is exactly the regime where offered load exceeds capacity.
//
// Three trace shapes cover the scenarios the server must survive: a
// steady Poisson process (capacity calibration), a diurnal cycle (slow
// swings across the session cap), and a flash crowd (a step spike the
// session cap must refuse fast and drain cleanly). All draws come from a seeded mathx.RNG, so a trace is
// reproducible from its Config alone.
package loadgen

import (
	"fmt"
	"math"
	"time"

	"github.com/stsl/stsl/internal/mathx"
)

// Shape selects the arrival process.
type Shape string

const (
	// ShapePoisson is a homogeneous Poisson process at Rate.
	ShapePoisson Shape = "poisson"
	// ShapeDiurnal modulates Rate sinusoidally over Period: starting at
	// the trough (Floor×Rate), peaking at Rate half a period in.
	ShapeDiurnal Shape = "diurnal"
	// ShapeFlash is Poisson at Rate with a burst window at SpikeX× the
	// rate — the join-storm profile.
	ShapeFlash Shape = "flash-crowd"
)

// ParseShape maps a flag string onto a Shape.
func ParseShape(s string) (Shape, error) {
	switch Shape(s) {
	case ShapePoisson, ShapeDiurnal, ShapeFlash:
		return Shape(s), nil
	}
	return "", fmt.Errorf("loadgen: unknown shape %q (want poisson|diurnal|flash-crowd)", s)
}

// Config parameterises one trace. Zero optional fields take defaults.
type Config struct {
	// Shape selects the process (required).
	Shape Shape
	// Rate is the base arrival rate in arrivals/second (required > 0).
	// For diurnal it is the peak; for flash-crowd the off-spike base.
	Rate float64
	// Duration is the trace horizon (required > 0).
	Duration time.Duration
	// Seed drives every random draw; the same Config yields the same
	// trace.
	Seed uint64

	// Period is the diurnal cycle length (default Duration, one cycle).
	Period time.Duration
	// Floor is the diurnal trough as a fraction of Rate in [0,1]
	// (default 0.2).
	Floor float64

	// SpikeAt is when the flash crowd begins (default Duration/3).
	SpikeAt time.Duration
	// SpikeFor is how long it lasts (default Duration/10).
	SpikeFor time.Duration
	// SpikeX multiplies Rate during the spike (default 10).
	SpikeX float64
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = c.Duration
	}
	if c.Floor <= 0 {
		c.Floor = 0.2
	}
	if c.SpikeAt <= 0 {
		c.SpikeAt = c.Duration / 3
	}
	if c.SpikeFor <= 0 {
		c.SpikeFor = c.Duration / 10
	}
	if c.SpikeX <= 0 {
		c.SpikeX = 10
	}
	return c
}

func (c Config) validate() error {
	if _, err := ParseShape(string(c.Shape)); err != nil {
		return err
	}
	if c.Rate <= 0 {
		return fmt.Errorf("loadgen: Rate must be positive, got %g", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: Duration must be positive, got %v", c.Duration)
	}
	if c.Floor > 1 {
		return fmt.Errorf("loadgen: Floor must be in [0,1], got %g", c.Floor)
	}
	return nil
}

// rateAt is the instantaneous rate λ(t) of the configured process.
func (c Config) rateAt(t time.Duration) float64 {
	switch c.Shape {
	case ShapeDiurnal:
		// Trough at t=0 and t=Period, peak at Period/2.
		phase := 0.5 * (1 - math.Cos(2*math.Pi*t.Seconds()/c.Period.Seconds()))
		return c.Rate * (c.Floor + (1-c.Floor)*phase)
	case ShapeFlash:
		if t >= c.SpikeAt && t < c.SpikeAt+c.SpikeFor {
			return c.Rate * c.SpikeX
		}
		return c.Rate
	default:
		return c.Rate
	}
}

// peakRate is the envelope λmax that dominates λ(t) everywhere — the
// homogeneous rate the thinning sampler proposes at.
func (c Config) peakRate() float64 {
	if c.Shape == ShapeFlash {
		return c.Rate * c.SpikeX
	}
	return c.Rate
}

// Arrivals materialises the trace: strictly increasing offsets from the
// trace start, all < Duration. Non-homogeneous shapes are sampled by
// Lewis-Shedler thinning — propose a homogeneous Poisson stream at the
// envelope rate, keep each proposal t with probability λ(t)/λmax — which
// is exact for any bounded λ(t).
func Arrivals(cfg Config) ([]time.Duration, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := mathx.NewRNG(cfg.Seed)
	peak := cfg.peakRate()
	out := make([]time.Duration, 0, int(float64(cfg.Duration)/float64(time.Second)*cfg.Rate)+16)
	for t := time.Duration(0); ; {
		t += time.Duration(rng.Exp(peak) * float64(time.Second))
		if t >= cfg.Duration {
			return out, nil
		}
		if accept := cfg.rateAt(t) / peak; accept >= 1 || rng.Float64() < accept {
			out = append(out, t)
		}
	}
}
