// Seeded open-loop traffic: the drills offer load at a rate the
// front-end does not control (arrivals keep coming whether or not
// earlier requests finished — the regime where admission control
// matters), shaped by a diurnal ramp and by faultinject Burst windows
// for flash crowds. Expert popularity itself is Zipf via the routing
// Sampler; Traffic only decides how many requests arrive per tick.
package serving

import (
	"math"

	"janus/internal/faultinject"
)

// Traffic generates per-tick arrival counts as a pure function of
// (seed, tick) and the injector's step-gated Burst rules.
type Traffic struct {
	// BaseRate is the mean arrivals per tick before shaping.
	BaseRate float64
	// DiurnalAmp in [0,1) scales a sinusoidal ramp: rate swings between
	// BaseRate·(1−amp) and BaseRate·(1+amp) over DiurnalPeriod ticks
	// (0 = flat).
	DiurnalAmp    float64
	DiurnalPeriod int
	// Injector and Label hook flash crowds in: the effective rate is
	// multiplied by Injector.RateMultiplier(Label), the product of the
	// Burst rules active at the injector's current step (nil = 1).
	Injector *faultinject.Injector
	Label    string
	// Seed dithers fractional rates deterministically.
	Seed int64
}

// Rate returns the effective (possibly fractional) arrival rate at a
// tick.
func (tr Traffic) Rate(tick int) float64 {
	r := tr.BaseRate
	if tr.DiurnalAmp > 0 && tr.DiurnalPeriod > 0 {
		r *= 1 + float64(tr.DiurnalAmp*math.Sin(2*math.Pi*float64(tick)/float64(tr.DiurnalPeriod)))
	}
	if tr.Injector != nil {
		r *= tr.Injector.RateMultiplier(tr.Label)
	}
	if r < 0 {
		r = 0
	}
	return r
}

// Arrivals returns the integer arrival count at a tick: the floor of
// Rate plus a seeded Bernoulli draw on the fractional part, so the
// long-run mean matches the rate without any shared RNG state.
func (tr Traffic) Arrivals(tick int) int {
	r := tr.Rate(tick)
	n := int(r)
	frac := r - float64(n)
	if frac > 0 {
		u := float64(splitmixServe(uint64(tr.Seed)^uint64(tick)*0x9E3779B97F4A7C15)>>11) / (1 << 53)
		if u < frac {
			n++
		}
	}
	return n
}
